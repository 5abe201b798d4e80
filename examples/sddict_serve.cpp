// sddict_serve: the tester-floor query server. Loads one packed signature
// store (dictionary_explorer --export-store writes them) or a repository
// catalog of published artifacts (dictionary_explorer --publish writes
// them) and answers diagnosis queries — one request per tester datalog —
// on stdin/stdout by default, or on TCP (--tcp) and/or a Unix-domain
// socket (--socket) through the event loop. Both modes run the same
// framer and command code (net/server.h), so their replies are
// byte-identical except the volatile `timing` lines and the net counters
// of `stats`. The request and reply grammar is in net/protocol.h; session
// verbs are in session/service.h; the repository admin verbs (!list !use
// !reload !stats !compact !squash) are in net/backends.h. With
// --max-chain=N a !reload also squashes delta chains deeper than N.
//
// Socket mode keeps serving until SIGINT/SIGTERM, then drains every
// accepted request before exiting. With --port-file=PATH the bound TCP
// address is written to PATH atomically (host:port + newline) once the
// listener is up, so a supervisor never has to scrape stderr.
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
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/backends.h"
#include "net/server.h"
#include "repo/repository.h"
#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/cli.h"
#include "util/failpoint.h"
#include "util/fileio.h"

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

net::NetServer* g_net_server = nullptr;

void on_stop_signal(int) {
  // request_stop is async-signal-safe: an atomic store + self-pipe write.
  if (g_net_server != nullptr) g_net_server->request_stop();
}

int serve_net(net::NetServer::Backend& backend,
              const net::NetServerOptions& nopts,
              const std::string& port_file) {
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
    // Declared first so it outlives the backend that serves from it.
    std::unique_ptr<DictionaryRepository> repository;
    std::unique_ptr<net::ServingBackend> backend;
    if (!repo_dir.empty()) {
      RepositoryOptions ropts;
      ropts.load_mode = mode;
      repository = std::make_unique<DictionaryRepository>(repo_dir, ropts);
      StoreSource kind{};
      if (!parse_store_source(kind_token, &kind))
        throw std::runtime_error("unknown kind '" + kind_token + "'");
      std::fprintf(stderr, "repo %s: %zu artifacts cataloged\n",
                   repo_dir.c_str(), repository->manifest().entries.size());
      backend = std::make_unique<net::RepoBackend>(*repository, opts, circuit,
                                                   kind, max_chain, sopts);
    } else {
      auto store = std::make_shared<const SignatureStore>(
          SignatureStore::load_file(store_path, mode));
      std::fprintf(stderr,
                   "store %s: kind=%s source=%s faults=%zu tests=%zu %s\n",
                   store_path.c_str(), store_kind_name(store->kind()),
                   store_source_name(store->source()), store->num_faults(),
                   store->num_tests(), store->mapped() ? "mmap" : "stream");
      backend = std::make_unique<net::StoreBackend>(std::move(store), opts,
                                                    sopts);
    }
    if (tcp_mode || !socket_path.empty()) {
      // Either listener alone, or both on the same loop.
      nopts.unix_path = socket_path;
      return serve_net(*backend, nopts, port_file);
    }
    net::serve_stream(*backend, nopts, std::cin, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sddict_serve: %s\n", e.what());
    return 1;
  }
}
