// sddict_serve: the tester-floor query server. Loads one packed signature
// store (dictionary_explorer --export-store writes them) and answers
// diagnosis queries over a line protocol, on stdin/stdout by default or on
// TCP (--tcp) and/or a Unix-domain socket (--socket) through the event
// loop.
//
// Protocol, one request per tester datalog (diag/testerlog.h format):
//
//   sddict testerlog v1        <- client sends a whole datalog, closed by
//   tests <k>                     its well-formed `end` line
//   t 0 4
//   end
//
// and the server answers
//
//   diagnosis <outcome> best=<n> margin=<n> effective=<n> dont_care=<n>
//       unknown=<n> completed=<0|1> stop=<reason> [dropped=<n>]
//   candidate <rank> fault=<id> mismatches=<n>
//   ...
//   cover fault=<id> ...           (unmodeled-defect verdicts only)
//   timing latency_ms=<x> cache_hit=<0|1>   <- volatile; CI diffs ignore it
//   done
//
// Between datalogs the bare commands `stats` (print a counters line),
// `!health` (a machine-readable liveness one-liner for supervisors) and
// `quit` are accepted. Responses always come back in request order, but
// requests are submitted asynchronously as they are read, so piped input
// actually exercises the service's micro-batching.
//
// Repository mode (--repo=DIR instead of --store) serves a whole catalog
// of published artifacts (dictionary_explorer --publish writes them) and
// additionally accepts admin verbs between datalogs:
//
//   !list                 catalog entries, one `artifact ...` line each
//   !use CIRCUIT [KIND]   switch the query target
//   !reload [CIRCUIT]     re-read the manifest and hot-swap the circuit's
//                         service to the newest version, without dropping
//                         in-flight requests
//   !stats                repository + per-service counters (per-version
//                         store bytes and delta-chain length included)
//   !compact [lossless|lossy:EPS]
//                         plan a test-set compaction of the current
//                         target's latest version, publish it as a
//                         drop-only delta, and hot-swap the service
//   !squash               collapse the current target's delta chain into
//                         a fresh full store version and hot-swap
//
// With --max-chain=N a !reload additionally kicks background squashing
// (repo.squash_async on a maintenance pool) for chains deeper than N.
//
// Session verbs (multi-observation diagnosis, src/session): a retest flow
// opens a session per die, appends one datalog per test-set application,
// and asks for a session-level diagnosis — consensus single-fault ranking
// plus minimal multi-fault covers as ranked ambiguity groups. Each verb
// is itself a datalog-type frame (closed by a bare `end`; the appended
// testerlog's own `end` doubles as the frame close), so the verbs flow
// through every front end and the fleet proxy unchanged:
//
//   session begin DIE42        session append DIE42      session diagnose DIE42
//   end                        sddict testerlog v1       end
//                              tests <k> ... end
//   session end DIE42
//   end
//
// Networked mode (--tcp=PORT, port 0 = kernel-assigned, and/or
// --socket=PATH): an event-loop front end (src/net/server.h) multiplexes
// many concurrent TCP and Unix-socket sessions onto the same service, with per-connection timeouts, bounded in-flight limits, and
// load shedding via explicit `busy retry_after_ms=N` replies (see
// src/net/client.h for the backoff discipline clients should follow).
// SIGINT/SIGTERM drain every accepted request before exiting. With
// --port-file=PATH the bound address is additionally written to PATH
// atomically (host:port + newline) once the listener is up, so a
// supervisor never has to scrape stderr — and never reads a torn file.
//
//   $ ./sddict_serve --store=dict.store [--threads=N] [--batch=N]
//       [--cache=N] [--deadline-ms=X] [--load=auto|mmap|stream]
//       [--socket=PATH] [--backlog=N]
//       [--tcp=PORT [--host=ADDR] [--max-sessions=N] [--max-inflight=N]
//        [--session-inflight=N] [--pending=N] [--idle-timeout-ms=X]
//        [--frame-timeout-ms=X] [--write-timeout-ms=X] [--busy-retry-ms=N]
//        [--failpoints=SPEC]]
//   $ ./sddict_serve --repo=DIR --circuit=NAME [--kind=KIND] [...]
#include <csignal>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compact/repo_compact.h"
#include "diag/testerlog.h"
#include "net/protocol.h"
#include "net/server.h"
#include "repo/repository.h"
#include "serve/diagnosis_service.h"
#include "session/service.h"
#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/cli.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/strings.h"
#include "util/threadpool.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sddict_serve --store=FILE [--threads=N] [--batch=N]\n"
               "  [--cache=N] [--deadline-ms=X] [--load=auto|mmap|stream]\n"
               "  [--socket=PATH] [--backlog=N]\n"
               "  [--tcp=PORT [--host=ADDR] [--max-sessions=N]\n"
               "   [--max-inflight=N] [--session-inflight=N] [--pending=N]\n"
               "   [--idle-timeout-ms=X] [--frame-timeout-ms=X]\n"
               "   [--write-timeout-ms=X] [--busy-retry-ms=N]\n"
               "   [--port-file=PATH] [--failpoints=SPEC]]\n"
               "  [--session-deadline-ms=X] [--max-die-sessions=N]\n"
               "  [--session-runs=N] [--session-cover=N]\n"
               "   or: sddict_serve --repo=DIR --circuit=NAME [--kind=KIND]\n"
               "  [--max-chain=N] [same options]\n");
  return 1;
}

// Repository-backed serving state: one hot-swappable DiagnosisService per
// (circuit, kind) the client has targeted, created lazily from the catalog.
struct RepoServer {
  DictionaryRepository* repo = nullptr;
  ServiceOptions opts;
  std::string circuit;                          // current target
  StoreSource kind = StoreSource::kSameDifferent;
  std::map<std::string, std::unique_ptr<DiagnosisService>> services;
  // Manifest version each service currently serves, by the same key.
  // `!health` reports this so a fleet supervisor can check every backend
  // flipped to the same version after a republish.
  std::map<std::string, std::uint64_t> versions;
  // Delta chains deeper than this get squashed in the background on
  // !reload (0 = maintenance off). The pool exists only once needed.
  std::size_t max_chain = 0;
  std::unique_ptr<ThreadPool> maintenance;

  ThreadPool& maintenance_pool() {
    if (!maintenance) maintenance = std::make_unique<ThreadPool>(1);
    return *maintenance;
  }

  std::string key(const std::string& c, StoreSource k) const {
    return c + '\0' + store_source_name(k);
  }
  // The service for the current target, created on first use.
  DiagnosisService& current() {
    if (circuit.empty())
      throw std::runtime_error("no circuit selected (use !use CIRCUIT)");
    const std::string k = key(circuit, kind);
    auto it = services.find(k);
    if (it == services.end()) {
      it = services
               .emplace(k, std::make_unique<DiagnosisService>(
                                repo->acquire(circuit, kind), opts))
               .first;
      versions[k] = repo->latest_version(circuit, kind);
    }
    return *it->second;
  }
  std::uint64_t served_version() const {
    const auto it = versions.find(key(circuit, kind));
    return it == versions.end() ? 0 : it->second;
  }
};

struct PendingQuery {
  std::future<ServiceResponse> future;
  std::size_t dropped = 0;  // recovery-mode datalog records set aside
};

// Resolves and prints every pending response in submission order; with
// block == false stops at the first not-yet-ready future. Rendering is
// shared with the event-loop front end (net/protocol.h) so stdio and TCP
// replies are byte-identical.
void drain(std::ostream& out, std::deque<PendingQuery>& pending, bool block) {
  while (!pending.empty()) {
    auto& q = pending.front();
    if (!block &&
        q.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      return;
    try {
      net::write_response(out, q.future.get(), q.dropped);
    } catch (const std::exception& e) {
      net::write_error(out, e.what());
    }
    out.flush();
    pending.pop_front();
  }
}

// Admin verbs (repository mode). Every reply ends with `done`; failures
// surface as `error ...` through the caller's catch.
void handle_admin(RepoServer& rs, const std::vector<std::string>& tokens,
                  std::ostream& out) {
  const std::string& verb = tokens[0];
  if (verb == "!list") {
    const Manifest m = rs.repo->manifest();
    for (const ManifestEntry& e : m.entries) {
      // Established fields stay a stable prefix (CI greps them); the
      // chain/delta maintenance fields are appended after.
      out << "artifact circuit=" << e.circuit
          << " kind=" << store_source_name(e.kind) << " version=" << e.version
          << " bytes=" << e.bytes
          << " chain=" << rs.repo->chain_length_of(e.circuit, e.kind, e.version);
      if (e.is_delta)
        out << " base=" << e.base_version << " added=" << e.added_tests
            << " dropped=" << encode_index_ranges(e.dropped);
      out << " file=" << (e.file.empty() ? "-" : e.file) << "\n";
    }
    out << "done\n";
  } else if (verb == "!use") {
    if (tokens.size() < 2 || tokens.size() > 3)
      throw std::runtime_error("usage: !use CIRCUIT [KIND]");
    StoreSource kind = StoreSource::kSameDifferent;
    if (tokens.size() == 3 && !parse_store_source(tokens[2], &kind))
      throw std::runtime_error("unknown kind '" + tokens[2] + "'");
    rs.circuit = tokens[1];
    rs.kind = kind;
    DiagnosisService& svc = rs.current();  // load now, so failures land here
    out << "using circuit=" << rs.circuit
        << " kind=" << store_source_name(rs.kind)
        << " faults=" << svc.num_faults() << " tests=" << svc.num_tests()
        << "\n" << "done\n";
  } else if (verb == "!reload") {
    if (tokens.size() > 2) throw std::runtime_error("usage: !reload [CIRCUIT]");
    const std::string target = tokens.size() == 2 ? tokens[1] : rs.circuit;
    if (target.empty())
      throw std::runtime_error("no circuit selected (use !reload CIRCUIT)");
    rs.repo->reload();
    std::size_t swapped = 0;
    std::size_t squashed = 0;
    for (auto& [key, svc] : rs.services) {
      const std::size_t nul = key.find('\0');
      if (key.substr(0, nul) != target) continue;
      StoreSource kind{};
      parse_store_source(key.substr(nul + 1), &kind);
      // Background chain maintenance: with --max-chain=N, a reload of a
      // chain deeper than N squashes it first (on the maintenance pool;
      // the blocking get keeps replies deterministic) so the swap below
      // lands on the collapsed store.
      if (rs.max_chain > 0 &&
          rs.repo->chain_length(target, kind) > rs.max_chain) {
        rs.repo->squash_async(rs.maintenance_pool(), target, kind,
                              rs.max_chain).get();
        ++squashed;
      }
      svc->swap_store(rs.repo->acquire(target, kind));
      rs.versions[key] = rs.repo->latest_version(target, kind);
      ++swapped;
    }
    // `swapped=` stays the line's final established field (CI greps the
    // prefix); the maintenance counter only appears when armed.
    out << "reloaded circuit=" << target << " swapped=" << swapped;
    if (rs.max_chain > 0) out << " squashed=" << squashed;
    out << "\n" << "done\n";
  } else if (verb == "!stats") {
    out << "stats " << format_repository_stats(rs.repo->stats()) << "\n";
    for (const auto& [key, svc] : rs.services) {
      const std::size_t nul = key.find('\0');
      const std::string circuit = key.substr(0, nul);
      StoreSource kind{};
      parse_store_source(key.substr(nul + 1), &kind);
      const auto it = rs.versions.find(key);
      const std::uint64_t version = it == rs.versions.end() ? 0 : it->second;
      out << "stats circuit=" << circuit << " kind=" << key.substr(nul + 1)
          << " " << format_service_stats(svc->stats())
          << " version=" << version
          << " chain=" << rs.repo->chain_length_of(circuit, kind, version)
          << " store_bytes=" << svc->current_store()->size_bytes() << "\n";
    }
    out << "done\n";
  } else if (verb == "!compact") {
    if (tokens.size() > 2)
      throw std::runtime_error("usage: !compact [lossless|lossy:EPS]");
    CompactionOptions copts;
    if (tokens.size() == 2 && tokens[1] != "lossless") {
      if (tokens[1].rfind("lossy:", 0) != 0)
        throw std::runtime_error("unknown compaction mode '" + tokens[1] +
                                 "' (have lossless lossy:EPS)");
      std::size_t pos = 0;
      const std::string eps = tokens[1].substr(6);
      unsigned long long v = 0;
      try {
        v = std::stoull(eps, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos == 0 || pos != eps.size())
        throw std::runtime_error("bad lossy budget '" + eps + "'");
      copts.max_resolution_loss = v;
    }
    DiagnosisService& svc = rs.current();  // resolves the target, or throws
    const RepoCompaction rc =
        compact_published(*rs.repo, rs.circuit, rs.kind, copts);
    std::size_t swapped = 0;
    if (rc.published) {
      // Epoch-consistent hot swap: in-flight queries finish on the old
      // store, everything after sees the compacted version.
      svc.swap_store(rs.repo->acquire(rs.circuit, rs.kind));
      rs.versions[rs.key(rs.circuit, rs.kind)] =
          rs.repo->latest_version(rs.circuit, rs.kind);
      swapped = 1;
    }
    out << "compacted circuit=" << rs.circuit
        << " kind=" << store_source_name(rs.kind)
        << " version=" << rc.entry.version
        << " tests=" << rc.report.tests_before << "->" << rc.report.tests_after
        << " dropped=" << rc.report.dropped.size()
        << " pairs=" << rc.report.pairs_before << "->" << rc.report.pairs_after
        << " bytes=" << rc.report.bytes_before << "->" << rc.report.bytes_after
        << " published=" << (rc.published ? 1 : 0) << " swapped=" << swapped
        << "\n" << "done\n";
  } else if (verb == "!squash") {
    if (tokens.size() > 1) throw std::runtime_error("usage: !squash");
    DiagnosisService& svc = rs.current();
    const std::size_t chain_before = rs.repo->chain_length(rs.circuit, rs.kind);
    const ManifestEntry e = rs.repo->squash(rs.circuit, rs.kind);
    std::size_t swapped = 0;
    if (chain_before > 0) {
      svc.swap_store(rs.repo->acquire(rs.circuit, rs.kind));
      rs.versions[rs.key(rs.circuit, rs.kind)] =
          rs.repo->latest_version(rs.circuit, rs.kind);
      swapped = 1;
    }
    out << "squashed circuit=" << rs.circuit
        << " kind=" << store_source_name(rs.kind) << " version=" << e.version
        << " chain_before=" << chain_before << " bytes=" << e.bytes
        << " swapped=" << swapped << "\n" << "done\n";
  } else {
    throw std::runtime_error(
        "unknown admin verb " + verb +
        " (have !list !use !reload !stats !compact !squash)");
  }
}

// One client session: reads datalogs and commands until quit/EOF. Exactly
// one of `service` (single-store mode) and `repo` is non-null.
void serve_session(DiagnosisService* service, RepoServer* repo,
                   SessionService* session, std::istream& in,
                   std::ostream& out) {
  std::deque<PendingQuery> pending;
  std::string line;
  std::string block;
  bool in_block = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> tokens = split_ws(line);
    if (!in_block && tokens.size() == 1 && tokens[0] == "!health") {
      // Same one-liner shape the event-loop front end emits. Replies are
      // strictly ordered, so everything owed drains first — which is why
      // in_flight is honestly zero here: stdio mode is serial.
      drain(out, pending, /*block=*/true);
      try {
        DiagnosisService& svc = repo ? repo->current() : *service;
        const ServiceStats st = svc.stats();
        out << "health state=ok queue_depth=" << st.queue_depth
            << " in_flight=" << pending.size() << " epoch=" << st.swaps
            << " version=" << (repo ? repo->served_version() : 0) << "\n";
      } catch (const std::exception& e) {
        out << "error " << e.what() << "\n" << "done\n";
      }
      out.flush();
      continue;
    }
    if (!in_block && !tokens.empty() && tokens[0][0] == '!') {
      drain(out, pending, /*block=*/true);
      try {
        if (!repo)
          throw std::runtime_error("admin verbs need repository mode (--repo)");
        handle_admin(*repo, tokens, out);
      } catch (const std::exception& e) {
        out << "error " << e.what() << "\n" << "done\n";
      }
      out.flush();
      continue;
    }
    if (!in_block && tokens.size() == 1 &&
        (tokens[0] == "stats" || tokens[0] == "quit")) {
      drain(out, pending, /*block=*/true);
      if (tokens[0] == "quit") return;
      try {
        DiagnosisService& svc = repo ? repo->current() : *service;
        out << "stats " << format_service_stats(svc.stats()) << "\n";
      } catch (const std::exception& e) {
        out << "error " << e.what() << "\n" << "done\n";
      }
      out.flush();
      continue;
    }
    if (!tokens.empty()) in_block = true;
    block += line;
    block += '\n';
    // A well-formed `end` line is exactly what closes a datalog for the
    // reader (diag/testerlog.h) — same framing rule here.
    if (tokens.size() == 1 && tokens[0] == "end") {
      if (net::is_session_frame(block)) {
        // Session verbs are stateful and ordered: drain everything owed,
        // then execute inline — the same discipline admin verbs follow.
        const std::string frame = std::move(block);
        block.clear();
        in_block = false;
        drain(out, pending, /*block=*/true);
        session->handle(frame, out);
        out.flush();
        continue;
      }
      std::istringstream blockin(block);
      block.clear();
      in_block = false;
      PendingQuery q;
      try {
        const TesterLog log = read_testerlog(blockin, {.recover = true});
        q.dropped = log.dropped.size();
        DiagnosisService& svc = repo ? repo->current() : *service;
        q.future = svc.submit(log.observations);
      } catch (const std::exception& e) {
        drain(out, pending, /*block=*/true);
        out << "error " << e.what() << "\n" << "done\n";
        out.flush();
        continue;
      }
      pending.push_back(std::move(q));
      drain(out, pending, /*block=*/false);
    }
  }
  drain(out, pending, /*block=*/true);
}

// ----------------------------------------------------- event-loop mode --

// Backend adapters handing the event loop its dispatch target: the single
// store service, or the repo server's current circuit plus admin verbs.
struct StoreBackend : net::NetServer::Backend {
  DiagnosisService* svc;
  SessionService* session;
  StoreBackend(DiagnosisService* s, SessionService* ss)
      : svc(s), session(ss) {}
  DiagnosisService& service() override { return *svc; }
  bool handle_admin(const std::vector<std::string>&, std::ostream&) override {
    return false;  // admin verbs need repository mode
  }
  bool handle_session(const std::string& frame_text,
                      std::ostream& out) override {
    session->handle(frame_text, out);
    return true;
  }
};

struct RepoBackend : net::NetServer::Backend {
  RepoServer* rs;
  SessionService* session;
  RepoBackend(RepoServer* r, SessionService* ss) : rs(r), session(ss) {}
  DiagnosisService& service() override { return rs->current(); }
  bool handle_admin(const std::vector<std::string>& tokens,
                    std::ostream& out) override {
    ::handle_admin(*rs, tokens, out);  // the free admin-verb handler above
    return true;
  }
  bool handle_session(const std::string& frame_text,
                      std::ostream& out) override {
    session->handle(frame_text, out);
    return true;
  }
  std::uint64_t store_version() override { return rs->served_version(); }
};

net::NetServer* g_net_server = nullptr;

void on_stop_signal(int) {
  // request_stop is async-signal-safe: an atomic store + self-pipe write.
  if (g_net_server != nullptr) g_net_server->request_stop();
}

int serve_net(DiagnosisService* service, RepoServer* repo,
              SessionService* session, const net::NetServerOptions& nopts,
              const std::string& port_file) {
  StoreBackend store_backend(service, session);
  RepoBackend repo_backend(repo, session);
  net::NetServer::Backend& backend =
      repo ? static_cast<net::NetServer::Backend&>(repo_backend)
           : static_cast<net::NetServer::Backend&>(store_backend);
  net::NetServer server(backend, nopts);
  server.start();
  g_net_server = &server;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  if (server.tcp_port() >= 0)
    std::fprintf(stderr, "listening on tcp %s:%d (kernels: %s)\n",
                 nopts.bind_host.c_str(), server.tcp_port(),
                 kernels::dispatch().name);
  if (!nopts.unix_path.empty())
    std::fprintf(stderr, "listening on %s\n", nopts.unix_path.c_str());
  if (!port_file.empty() && server.tcp_port() >= 0)
    // Atomic (temp + rename): a supervisor polling the path sees either
    // nothing or the complete address, never a torn prefix.
    atomic_write_file(port_file, nopts.bind_host + ":" +
                                     std::to_string(server.tcp_port()) + "\n");
  server.run();  // returns after a stop signal, fully drained
  g_net_server = nullptr;
  std::fprintf(stderr, "drained: %s\n",
               format_net_stats(server.stats()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags(
      {"store", "repo", "circuit", "kind", "threads", "batch", "cache",
       "deadline-ms", "load", "socket", "backlog", "tcp", "host",
       "max-sessions", "max-inflight", "session-inflight", "pending",
       "idle-timeout-ms", "frame-timeout-ms", "write-timeout-ms",
       "busy-retry-ms", "port-file", "failpoints", "session-deadline-ms",
       "max-die-sessions", "session-runs", "session-cover", "max-chain"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }

  std::string store_path, repo_dir, circuit, kind_token, load_mode, socket_path;
  std::string port_file;
  ServiceOptions opts;
  SessionServiceOptions sopts;
  net::NetServerOptions nopts;
  bool tcp_mode = false;
  std::size_t max_chain = 0;
  try {
    store_path = args.get("store");
    repo_dir = args.get("repo");
    circuit = args.get("circuit");
    kind_token = args.get("kind", store_source_name(StoreSource::kSameDifferent));
    if (store_path.empty() == repo_dir.empty())
      throw std::invalid_argument(
          "exactly one of --store and --repo is required");
    opts.threads = static_cast<std::size_t>(args.get_int("threads", 1, 0, 4096));
    opts.batch = static_cast<std::size_t>(args.get_int("batch", 8, 1, 1 << 16));
    opts.cache = static_cast<std::size_t>(args.get_int("cache", 256, 0, 1 << 24));
    opts.deadline_ms = args.get_double("deadline-ms", 0);
    if (opts.deadline_ms < 0)
      throw std::invalid_argument("flag --deadline-ms must be >= 0");
    load_mode = args.get("load", "auto");
    if (load_mode != "auto" && load_mode != "mmap" && load_mode != "stream")
      throw std::invalid_argument("flag --load must be auto, mmap or stream");
    socket_path = args.get("socket");
    tcp_mode = args.has("tcp");
    nopts.tcp_port =
        tcp_mode ? static_cast<int>(args.get_int("tcp", 0, 0, 65535)) : -1;
    nopts.bind_host = args.get("host", "127.0.0.1");
    nopts.backlog = static_cast<int>(args.get_int("backlog", 64, 1, 65535));
    nopts.max_sessions =
        static_cast<std::size_t>(args.get_int("max-sessions", 256, 1, 1 << 20));
    nopts.max_inflight =
        static_cast<std::size_t>(args.get_int("max-inflight", 64, 1, 1 << 20));
    nopts.session_inflight = static_cast<std::size_t>(
        args.get_int("session-inflight", 8, 1, 1 << 20));
    nopts.max_pending =
        static_cast<std::size_t>(args.get_int("pending", 128, 1, 1 << 20));
    nopts.idle_timeout_ms = args.get_double("idle-timeout-ms", 30000);
    nopts.frame_timeout_ms = args.get_double("frame-timeout-ms", 10000);
    nopts.write_timeout_ms = args.get_double("write-timeout-ms", 10000);
    nopts.busy_retry_ms = static_cast<std::uint32_t>(
        args.get_int("busy-retry-ms", 25, 1, 1 << 20));
    port_file = args.get("port-file");
    max_chain =
        static_cast<std::size_t>(args.get_int("max-chain", 0, 0, 1 << 20));
    sopts.deadline_ms = args.get_double("session-deadline-ms", 0);
    if (sopts.deadline_ms < 0)
      throw std::invalid_argument("flag --session-deadline-ms must be >= 0");
    sopts.limits.max_sessions = static_cast<std::size_t>(
        args.get_int("max-die-sessions", 64, 1, 1 << 20));
    sopts.limits.max_runs =
        static_cast<std::size_t>(args.get_int("session-runs", 64, 1, 1 << 20));
    sopts.diagnose.max_cover =
        static_cast<std::size_t>(args.get_int("session-cover", 8, 1, 64));
    // Chaos harness hook: deterministic fault injection armed from the
    // command line or the SDDICT_FAILPOINTS environment variable.
    std::size_t armed = failpoint::arm_from_env();
    armed += failpoint::arm_from_spec(args.get("failpoints"));
    if (armed > 0)
      std::fprintf(stderr, "armed %zu failpoint(s)\n", armed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  try {
    const StoreLoadMode mode = load_mode == "mmap"   ? StoreLoadMode::kMmap
                               : load_mode == "stream" ? StoreLoadMode::kStream
                                                       : StoreLoadMode::kAuto;
    std::unique_ptr<DiagnosisService> service;
    std::unique_ptr<DictionaryRepository> repository;
    RepoServer repo_server;
    RepoServer* repo = nullptr;
    if (!repo_dir.empty()) {
      RepositoryOptions ropts;
      ropts.load_mode = mode;
      repository =
          std::make_unique<DictionaryRepository>(repo_dir, ropts);
      repo_server.repo = repository.get();
      repo_server.opts = opts;
      repo_server.circuit = circuit;
      repo_server.max_chain = max_chain;
      if (!parse_store_source(kind_token, &repo_server.kind))
        throw std::runtime_error("unknown kind '" + kind_token + "'");
      std::fprintf(stderr, "repo %s: %zu artifacts cataloged\n",
                   repo_dir.c_str(), repository->manifest().entries.size());
      repo = &repo_server;
    } else {
      SignatureStore store = SignatureStore::load_file(store_path, mode);
      std::fprintf(stderr,
                   "store %s: kind=%s source=%s faults=%zu tests=%zu %s\n",
                   store_path.c_str(), store_kind_name(store.kind()),
                   store_source_name(store.source()), store.num_faults(),
                   store.num_tests(), store.mapped() ? "mmap" : "stream");
      // Shared (not owned) so the session diagnoser can build its packed
      // detection rows over the very store the single-fault service runs
      // on; behavior of the service itself is unchanged.
      service = std::make_unique<DiagnosisService>(
          std::make_shared<const SignatureStore>(std::move(store)), opts);
    }
    // Session verbs resolve the engine lazily per request, so repo-mode
    // hot swaps are picked up; the cache rebuilds only when the served
    // store pointer actually changes.
    auto session_cache = std::make_shared<SessionEngineCache>();
    SessionService session_service(
        [svc = service.get(), repo, session_cache]() {
          DiagnosisService& s = repo ? repo->current() : *svc;
          return session_cache->get(s.current_store());
        },
        sopts);
    if (tcp_mode || !socket_path.empty()) {
      // Either listener alone, or both on the same loop.
      nopts.unix_path = socket_path;
      return serve_net(service.get(), repo, &session_service, nopts,
                       port_file);
    }
    serve_session(service.get(), repo, &session_service, std::cin, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sddict_serve: %s\n", e.what());
    return 1;
  }
}
