// layerbench: the layered sddict benchmark. One workload per run; --seed
// draws the query stream, the circuit and its patterns are fixed per
// workload; every output is checked.
//
// Workloads (README.md beside this file explains each):
//   fleet_clean  s1423/96 patterns, clean queries, closed loop over a
//                FleetProxy in front of 2 NetServer backends
//   tcp_noisy    s5378/200 patterns, 50% clean / 30% drop-1 / 20% flip-3,
//                closed loop against one NetServer
//   build        s9234/200 patterns, matrix -> Procedure 1 -> Procedure 2
//                -> s/d dictionary -> store -> publish -> acquire
//
// Untraced (--trace=0) runs print the end-to-end metrics; traced runs
// replay the query stream into each layer's entry point in turn (kernel
// sweep, engine, service, TCP server, fleet proxy), one span per call, and
// print the per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   $ layerbench --workload=fleet_clean --seed=1 --seconds=10 --trace=0
//       --workdir=DIR [--spans=FILE] [--revision=REV]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/registry.h"
#include "core/baseline.h"
#include "core/procedure2.h"
#include "diag/engine.h"
#include "dict/full_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "fleet/proxy.h"
#include "fleet/supervisor.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "netlist/transform.h"
#include "repo/repository.h"
#include "serve/diagnosis_service.h"
#include "sim/testset.h"
#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "util/timer.h"

using namespace sddict;
namespace pb = sddict::perfbench;

namespace {

const std::size_t kMaxResults = EngineOptions{}.max_results;
constexpr double kClientTimeoutS = 20;

// ------------------------------------------------------------ workloads --

struct WorkloadSpec {
  std::string name;
  std::string circuit;
  std::size_t patterns = 0;
  bool serving = false;
  pb::QueryMix mix;
  ServiceOptions service;     // per backend
  int backends = 0;           // 0 = clients talk to one NetServer directly
  std::size_t pool = 0;       // distinct queries the clients cycle through
  std::size_t trace_queries = 0;  // stream prefix the traced run replays
};

// Set-ups per run; setup_s is their median. A serving set-up includes the
// construction path and repeats until both counts below are reached, so a
// sub-second construction (s1423) gets enough samples for its median to
// ride out the host's bursts; the build workload's set-up is only the
// circuit load.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupSeconds = 5;
constexpr int kBuildSetupReps = 10;

ServiceOptions service_options(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  o.batch = 8;
  o.cache = 256;
  return o;
}

bool find_workload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "fleet_clean") {
    w.circuit = "s1423";
    w.patterns = 96;
    w.serving = true;
    w.mix = {1.0, 0.0};
    w.service = service_options(1);
    w.backends = 2;
    w.pool = 4096;
    w.trace_queries = 2048;
  } else if (name == "tcp_noisy") {
    w.circuit = "s5378";
    w.patterns = 200;
    w.serving = true;
    w.mix = {0.5, 0.3};
    w.service = service_options(2);
    w.backends = 0;
    w.pool = 4096;
    w.trace_queries = 1024;
  } else if (name == "build") {
    w.circuit = "s9234";
    w.patterns = 200;
    w.mix = {1.0, 0.0};  // the acquired-store check stream
    w.pool = 4000;
    w.trace_queries = 4000;
  } else {
    return false;
  }
  *out = w;
  return true;
}

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------ failure ledger --

// Every operation the benchmark issues, and how it ended. `busy` replies
// are failures, never latency samples.
struct Ledger {
  std::uint64_t attempted = 0, ok = 0, busy = 0, error = 0, mismatched = 0,
                timed_out = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  std::uint64_t failed() const { return busy + error + mismatched + timed_out; }
  void merge(const Ledger& o) {
    attempted += o.attempted;
    ok += o.ok;
    busy += o.busy;
    error += o.error;
    mismatched += o.mismatched;
    timed_out += o.timed_out;
    for (const std::string& n : o.notes) note(n);
  }
  void note(const std::string& n) {
    if (notes.size() < 8) notes.push_back(n);
  }
  // A gate: one attempted operation that must hold.
  void check(bool ok_, const std::string& what) {
    ++attempted;
    if (ok_) {
      ++ok;
    } else {
      ++mismatched;
      note("gate failed: " + what);
    }
  }
};

// --------------------------------------------------- construction path --

struct Circuit {
  Netlist nl;
  FaultList faults;
  TestSet tests{0};
};

// The construction inputs (patterns) and Procedure 1's restart seed are
// fixed by the workload's definition, so every run builds the same
// dictionary and build-path timings compare like with like; --seed draws
// the query stream.
constexpr std::uint64_t kConstructionSeed = 1;

Circuit load_circuit(const WorkloadSpec& w) {
  Circuit c;
  c.nl = load_benchmark(w.circuit);
  if (c.nl.has_dffs()) c.nl = full_scan(c.nl);
  c.faults = collapsed_fault_list(c.nl).collapsed;
  c.tests = TestSet(c.nl.num_inputs());
  Rng rng(kConstructionSeed);
  c.tests.add_random(w.patterns, rng);
  return c;
}

struct BuildTimes {
  double matrix_s = 0, proc1_s = 0, proc2_s = 0, sd_build_s = 0,
         store_build_s = 0, publish_s = 0, acquire_s = 0, total_s = 0;
};

struct Built {
  ResponseMatrix rm;
  BuildTimes t;
  std::uint64_t full_pairs = 0, pf_pairs = 0, sd_pairs = 0;
  std::size_t proc1_calls = 0, proc2_sweeps = 0, proc2_replacements = 0;
  std::shared_ptr<const SignatureStore> store;  // the acquired artifact
  std::string image() const {
    return {reinterpret_cast<const char*>(store->data()), store->size_bytes()};
  }
};

// Matrix through acquired store, each step timed from outside; the
// correctness gates run afterwards, untimed. The pair-count gates (and the
// pass/fail count they need) run only when `count_pairs` is set: later
// repetitions are checked byte-identical to the first instead.
Built build_pipeline(const WorkloadSpec& w, const Circuit& c,
                     std::size_t threads, const std::string& repo_dir,
                     bool count_pairs, Ledger* ledger) {
  Built b;
  Timer total, step;
  b.rm = build_response_matrix(c.nl, c.faults, c.tests,
                               {.num_threads = threads});
  b.t.matrix_s = step.seconds();

  // Procedure 1's restart target is the full dictionary's pair count, so
  // computing it is part of the Procedure 1 step.
  step.reset();
  b.full_pairs = FullDictionary::build(b.rm).indistinguished_pairs();
  BaselineSelectionConfig bcfg;
  bcfg.lower = 10;
  bcfg.calls1 = 20;
  bcfg.seed = kConstructionSeed;
  bcfg.num_threads = threads;
  bcfg.target_indistinguished = b.full_pairs;
  const BaselineSelection p1 = run_procedure1(b.rm, bcfg);
  b.t.proc1_s = step.seconds();
  b.proc1_calls = p1.calls_used;

  step.reset();
  Procedure2Config p2cfg;
  p2cfg.target_indistinguished = b.full_pairs;
  const Procedure2Result p2 = run_procedure2(b.rm, p1.baselines, p2cfg);
  b.t.proc2_s = step.seconds();
  b.proc2_sweeps = p2.sweeps;
  b.proc2_replacements = p2.replacements;

  step.reset();
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(b.rm, p2.baselines);
  b.t.sd_build_s = step.seconds();

  step.reset();
  const SignatureStore built = SignatureStore::build(sd);
  b.t.store_build_s = step.seconds();

  step.reset();
  std::filesystem::remove_all(repo_dir);
  DictionaryRepository repo(repo_dir);
  repo.publish(w.circuit, StoreSource::kSameDifferent, built, Provenance{});
  b.t.publish_s = step.seconds();

  step.reset();
  b.store = repo.acquire(w.circuit, StoreSource::kSameDifferent);
  b.t.acquire_s = step.seconds();
  b.t.total_s = total.seconds();

  b.sd_pairs = sd.indistinguished_pairs();
  if (count_pairs) {
    b.pf_pairs = PassFailDictionary::build(b.rm).indistinguished_pairs();
    ledger->check(count_indistinguished(b.rm, p2.baselines) ==
                      p2.indistinguished_pairs,
                  "count_indistinguished == Procedure 2 count");
    ledger->check(b.sd_pairs == p2.indistinguished_pairs,
                  "s/d dictionary pairs == Procedure 2 count");
    ledger->check(b.sd_pairs <= b.pf_pairs, "s/d pairs <= pass/fail pairs");
    ledger->check(b.full_pairs <= b.sd_pairs, "full pairs <= s/d pairs");
  }
  ledger->check(built.size_bytes() == b.store->size_bytes() &&
                    std::memcmp(built.data(), b.store->data(),
                                built.size_bytes()) == 0,
                "acquired store byte-identical to the built one");
  return b;
}

// ------------------------------------------------- system under test --

// A NetServer backend over one store. The fleet proxy sends `!reload` to
// every backend entering rotation; with a single published version the
// honest answer is an ack without a swap.
struct StoreBackend : net::NetServer::Backend {
  StoreBackend(std::shared_ptr<const SignatureStore> store,
               const ServiceOptions& o)
      : svc(std::move(store), o) {}
  DiagnosisService& service() override { return svc; }
  bool handle_admin(const std::vector<std::string>& tokens,
                    std::ostream& os) override {
    if (tokens.size() != 1 || tokens[0] != "!reload") return false;
    os << "reloaded swapped=0\ndone\n";
    return true;
  }
  std::uint64_t store_version() override { return 1; }

  DiagnosisService svc;
};

// One NetServer on loopback TCP, its event loop on its own thread.
class ServerNode {
 public:
  ServerNode(std::shared_ptr<const SignatureStore> store,
             const ServiceOptions& o)
      : backend_(std::move(store), o), server_(backend_, options()) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerNode() {
    server_.request_stop();
    thread_.join();
  }
  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  int port() const { return server_.tcp_port(); }
  net::NetStats stats() const { return server_.stats(); }

 private:
  static net::NetServerOptions options() {
    net::NetServerOptions o;
    o.tcp_port = 0;
    return o;
  }

  StoreBackend backend_;
  net::NetServer server_;
  std::thread thread_;  // last: joins before the server it runs dies
};

// The BackendSource the proxy polls: N in-process ServerNodes, fixed for
// the fleet's lifetime (no chaos: restart is refused).
class NodeSource : public fleet::BackendSource {
 public:
  NodeSource(const std::shared_ptr<const SignatureStore>& store,
             const ServiceOptions& o, int n) {
    for (int i = 0; i < n; ++i)
      nodes_.push_back(std::make_unique<ServerNode>(store, o));
  }
  void tick(double, fleet::FleetView* view) override {
    view->backends.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      view->backends.push_back(fleet::FleetBackendAddr{
          static_cast<int>(i), "127.0.0.1", nodes_[i]->port(), 1,
          static_cast<pid_t>(1000 + i)});
    view->respawns = 0;
  }
  bool restart(int) override { return false; }
  void shutdown() override { nodes_.clear(); }

 private:
  std::vector<std::unique_ptr<ServerNode>> nodes_;
};

class Fleet {
 public:
  Fleet(const std::shared_ptr<const SignatureStore>& store,
        const ServiceOptions& o, int backends)
      : source_(store, o, backends), proxy_(source_, options()) {
    proxy_.start();
    thread_ = std::thread([this] { proxy_.run(); });
  }
  ~Fleet() {
    proxy_.request_stop();
    thread_.join();
    source_.shutdown();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int port() const { return proxy_.tcp_port(); }
  fleet::ProxyStats stats() const { return proxy_.stats(); }

  bool wait_healthy(std::uint64_t n, double timeout_s) const {
    const auto t0 = std::chrono::steady_clock::now();
    while (seconds_since(t0) < timeout_s) {
      if (proxy_.stats().backends_healthy >= n) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

 private:
  // The fleet tests' tuning (tests/test_fleet.cpp): fast health probing
  // and probation. A request dealt to a backend right behind a probe can
  // stall for tens of milliseconds; at this probe rate more than 1% of
  // requests do, so p99 measures that stall steadily instead of flickering
  // around it (at the 250 ms default about 0.5-1% do).
  static fleet::ProxyOptions options() {
    fleet::ProxyOptions p;
    p.probe_interval_ms = 25;
    p.probation_ms = 50;
    p.max_failovers = 10;
    return p;
  }

  NodeSource source_;
  fleet::FleetProxy proxy_;
  std::thread thread_;
};

// The serving topology a workload's clients connect to.
struct Topology {
  std::unique_ptr<ServerNode> direct;
  std::unique_ptr<Fleet> fleet;
  int port() const { return fleet ? fleet->port() : direct->port(); }
};

Topology bring_up(const WorkloadSpec& w,
                  const std::shared_ptr<const SignatureStore>& store) {
  Topology t;
  if (w.backends > 0) {
    t.fleet = std::make_unique<Fleet>(store, w.service, w.backends);
    if (!t.fleet->wait_healthy(static_cast<std::uint64_t>(w.backends), 30))
      throw std::runtime_error("fleet backends never became healthy");
  } else {
    t.direct = std::make_unique<ServerNode>(store, w.service);
  }
  return t;
}

// ------------------------------------------------------------- clients --

// Sends one frame over `client` (connecting first when it is empty) and
// files the outcome. Returns true on a correct reply. A client exception
// is a timeout when the client says so, an error otherwise; either way the
// connection is dropped and the next call reconnects.
bool exchange(std::optional<net::Client>& client, int port,
              const pb::Query& q, const Hash128& expected, Ledger* ledger) {
  ++ledger->attempted;
  net::Reply reply;
  try {
    if (!client)
      client.emplace(
          net::Client::connect_tcp("127.0.0.1", port, kClientTimeoutS));
    reply = client->request(q.frame);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    ++(what.find("timed out") != std::string::npos ? ledger->timed_out
                                                    : ledger->error);
    ledger->note("request failed: " + what);
    client.reset();
    return false;
  }
  if (reply.busy) {
    ++ledger->busy;
    return false;
  }
  if (reply.error) {
    ++ledger->error;
    ledger->note("error reply: " + reply.error_text);
    return false;
  }
  if (pb::reply_digest(pb::canonical_reply(reply.lines)) != expected) {
    ++ledger->mismatched;
    ledger->note("mismatched reply for fault " + std::to_string(q.fault) +
                 " (" + pb::query_kind_name(q.kind) + ")");
    return false;
  }
  ++ledger->ok;
  return true;
}

// Runs body(c) on `conns` threads and joins them all.
void run_threads(std::size_t conns, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) threads.emplace_back(body, c);
  for (std::thread& t : threads) t.join();
}

struct LoadResult {
  Ledger ledger;
  std::vector<pb::Sample> samples;  // correct replies sent in the window, ms
};

// Closed loop: each connection is a tester station that sends its next
// datalog only after the previous diagnosis arrived. Connection c walks
// the pool at c, c + conns, c + 2 conns, ... (wrapping). Requests sent
// during the warm-up are checked but not timed.
LoadResult closed_loop(int port, const std::vector<pb::Query>& pool,
                       const std::vector<Hash128>& expected,
                       std::size_t conns, double warmup_s, double measure_s) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point window_start =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warmup_s));
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(measure_s));
  std::vector<LoadResult> per(conns);
  run_threads(conns, [&](std::size_t c) {
    LoadResult& r = per[c];
    std::size_t idx = c;
    std::optional<net::Client> client;
    while (Clock::now() < window_end) {
      const pb::Query& q = pool[idx % pool.size()];
      const Hash128& want = expected[idx % pool.size()];
      idx += conns;
      const Clock::time_point sent = Clock::now();
      const bool ok = exchange(client, port, q, want, &r.ledger);
      const Clock::time_point done = Clock::now();
      if (ok && sent >= window_start)
        r.samples.push_back(
            {std::chrono::duration<double>(sent - window_start).count(),
             std::chrono::duration<double, std::milli>(done - sent).count()});
    }
  });
  LoadResult out;
  for (const LoadResult& r : per) {
    out.ledger.merge(r.ledger);
    out.samples.insert(out.samples.end(), r.samples.begin(), r.samples.end());
  }
  return out;
}

// Reference answers: the engine straight on the served store, computed in
// parallel before any load runs, kept as reply digests plus the injected
// fault's rank.
struct Reference {
  std::vector<Hash128> digests;
  std::vector<std::size_t> ranks;
};

Reference reference_answers(const SignatureStore& store,
                            const std::vector<pb::Query>& pool,
                            std::size_t threads) {
  Reference r;
  r.digests.resize(pool.size());
  r.ranks.resize(pool.size());
  ThreadPool tp(threads);
  tp.parallel_for(0, pool.size(), [&](std::size_t i) {
    const EngineDiagnosis d = diagnose_observed(store, pool[i].observed);
    r.digests[i] = pb::reply_digest(pb::expected_reply(d));
    r.ranks[i] = pb::rank_or_miss(d, pool[i].fault, kMaxResults);
  });
  return r;
}

// ------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }
  void print_table() const {
    for (const Metric& m : metrics_)
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

struct Percentiles {
  double p50 = 0, p99 = 0;
};

Percentiles percentiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  return {pb::nearest_rank(v, 0.5), pb::nearest_rank(v, 0.99)};
}

// The whole-run distribution with its sample count and the highest
// percentile that keeps ten samples beyond it, next to the windowed
// medians the metrics report.
void print_latency_line(const std::vector<pb::Sample>& samples,
                        const pb::WindowedStats& ws) {
  std::vector<double> v;
  for (const pb::Sample& s : samples) v.push_back(s.latency);
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  const double tail = pb::tail_percentile(v.size());
  std::printf("  diagnosis latency: n=%zu p50=%.4g ms", v.size(),
              pb::nearest_rank(v, 0.5));
  if (tail > 0)
    std::printf(" p%g=%.4g ms (%zu samples beyond)", tail * 100,
                pb::nearest_rank(v, tail), pb::samples_beyond(v.size(), tail));
  std::printf("; median of %zu windows: p50=%.4g p99=%.4g ms, %.5g/s\n",
              ws.windows, ws.p50, ws.p99, ws.rate);
}

void add_build_layers(MetricSet* m, const std::vector<BuildTimes>& times,
                      const Built& b) {
  const auto med = [&](double BuildTimes::*field) {
    std::vector<double> v;
    for (const BuildTimes& t : times) v.push_back(t.*field);
    return pb::median(std::move(v));
  };
  m->add("sim.matrix_s", med(&BuildTimes::matrix_s), "s");
  m->add("core.proc1_s", med(&BuildTimes::proc1_s), "s");
  m->add("core.proc1_calls", static_cast<double>(b.proc1_calls), "count");
  m->add("core.proc2_s", med(&BuildTimes::proc2_s), "s");
  m->add("core.proc2_sweeps", static_cast<double>(b.proc2_sweeps), "count");
  m->add("core.proc2_replacements", static_cast<double>(b.proc2_replacements),
         "count");
  m->add("core.pf_pairs", static_cast<double>(b.pf_pairs), "count");
  m->add("core.full_pairs", static_cast<double>(b.full_pairs), "count");
  m->add("dict.sd_build_s", med(&BuildTimes::sd_build_s), "s");
  m->add("store.build_s", med(&BuildTimes::store_build_s), "s");
  m->add("repo.publish_s", med(&BuildTimes::publish_s), "s");
  m->add("repo.acquire_s", med(&BuildTimes::acquire_s), "s");
}

// ------------------------------------------------------------- tracing --

const std::vector<std::string> kLayers = {"store", "diag", "serve", "net",
                                          "fleet"};

// Replays queries [0, count) at `conns`-way concurrency, one span per call:
// connection c takes c, c + conns, ... Returns the pass's wall seconds.
double replay(pb::SpanLog& spans, std::size_t layer, std::size_t count,
              std::size_t conns,
              const std::function<void(std::size_t, std::size_t)>& call) {
  Timer wall;
  run_threads(conns, [&](std::size_t c) {
    for (std::size_t q = c; q < count; q += conns) {
      const double start = spans.now_us();
      call(c, q);
      spans.record(layer, q, start, spans.now_us());
    }
  });
  return wall.seconds();
}

struct TraceInput {
  const WorkloadSpec& w;
  std::shared_ptr<const SignatureStore> store;
  const std::vector<pb::Query>& pool;
  const std::vector<Hash128>& expected;
  std::size_t conns;
};

// The traced run: the stream prefix replayed into each layer's entry
// point in turn, bottom-up. Layers that do not run on a workload report 0.
void trace_layers(const TraceInput& in, const std::string& spans_path,
                  MetricSet* m, Ledger* ledger) {
  const std::size_t n = std::min(in.w.trace_queries, in.pool.size());
  pb::SpanLog spans(kLayers, n);
  const SignatureStore& store = *in.store;
  const std::size_t tests = store.num_tests();
  const std::size_t nwords = (tests + 63) / 64;

  // store: one dispatched masked_hamming sweep over every row per query.
  {
    const kernels::KernelTable& k = kernels::dispatch();
    std::vector<std::uint64_t> obs(nwords), care(nwords);
    std::uint64_t sink = 0;
    const ResponseId* bl = store.baselines();
    replay(spans, 0, n, 1, [&](std::size_t, std::size_t q) {
      std::fill(obs.begin(), obs.end(), 0);
      std::fill(care.begin(), care.end(), 0);
      for (std::size_t t = 0; t < tests; ++t) {
        const Observed& o = in.pool[q].observed[t];
        if (o.dont_care()) continue;
        care[t >> 6] |= std::uint64_t{1} << (t & 63);
        if (o.value != bl[t]) obs[t >> 6] |= std::uint64_t{1} << (t & 63);
      }
      for (std::size_t f = 0; f < store.num_faults(); ++f)
        sink += k.masked_hamming(store.row_words(static_cast<FaultId>(f)),
                                 obs.data(), care.data(), nwords);
    });
    std::printf("  store sweep: %llu mismatches counted\n",
                static_cast<unsigned long long>(sink));
    m->add("store.sweep_us", pb::median(spans.durations(0)), "us");
  }

  // diag: the engine on the store, sequentially.
  {
    std::uint64_t stages[4] = {0, 0, 0, 0};
    std::vector<std::vector<double>> by_kind(3);
    replay(spans, 1, n, 1, [&](std::size_t, std::size_t q) {
      const EngineDiagnosis d = diagnose_observed(store, in.pool[q].observed);
      ++stages[static_cast<int>(d.outcome)];
      ledger->check(pb::reply_digest(pb::expected_reply(d)) == in.expected[q],
                    "engine replay equals reference");
    });
    const std::vector<double> d = spans.durations(1);
    for (std::size_t q = 0; q < n; ++q)
      by_kind[static_cast<int>(in.pool[q].kind)].push_back(d[q]);
    const Percentiles p = percentiles(d);
    m->add("diag.p50_us", p.p50, "us");
    m->add("diag.p99_us", p.p99, "us");
    m->add("diag.clean_p50_us", pb::median(by_kind[0]), "us");
    m->add("diag.drop1_p50_us", pb::median(by_kind[1]), "us");
    m->add("diag.flip3_p50_us", pb::median(by_kind[2]), "us");
    m->add("diag.exact", static_cast<double>(stages[0]), "count");
    m->add("diag.tolerant", static_cast<double>(stages[1]), "count");
    m->add("diag.projection", static_cast<double>(stages[2]), "count");
    m->add("diag.unmodeled", static_cast<double>(stages[3]), "count");
  }

  const auto layer_stats = [&](const char* name, std::size_t layer,
                               double wall_s) {
    const Percentiles p = percentiles(spans.durations(layer));
    m->add(std::string(name) + ".p50_us", p.p50, "us");
    m->add(std::string(name) + ".p99_us", p.p99, "us");
    m->add(std::string(name) + ".self_us", spans.self_median_us(layer, layer - 1),
           "us");
    m->add(std::string(name) + ".qps", static_cast<double>(n) / wall_s, "1/s");
  };
  const auto zero = [&](const std::string& name,
                        std::initializer_list<const char*> counts) {
    for (const char* s : {".p50_us", ".p99_us", ".self_us"})
      m->add(name + s, 0, "us");
    m->add(name + ".qps", 0, "1/s");
    for (const char* s : counts) m->add(name + s, 0, "count");
  };
  if (!in.w.serving) {
    zero("serve", {".batches", ".cache_hits", ".cache_misses", ".shed"});
    zero("net", {".busy_shed"});
    zero("fleet", {".failovers", ".busy_shed"});
  }

  // serve: DiagnosisService::submit at the workload's concurrency.
  if (in.w.serving) {
    DiagnosisService svc(in.store, in.w.service);
    std::vector<Ledger> per(in.conns);
    const double wall = replay(spans, 2, n, in.conns,
                               [&](std::size_t c, std::size_t q) {
      const ServiceResponse r = svc.submit(in.pool[q].observed).get();
      per[c].check(pb::reply_digest(pb::expected_reply(r.diagnosis)) ==
                       in.expected[q],
                   "service reply equals reference");
    });
    for (const Ledger& l : per) ledger->merge(l);
    const ServiceStats s = svc.stats();
    layer_stats("serve", 2, wall);
    m->add("serve.batches", static_cast<double>(s.batches), "count");
    m->add("serve.cache_hits", static_cast<double>(s.cache_hits), "count");
    m->add("serve.cache_misses", static_cast<double>(s.cache_misses), "count");
    m->add("serve.shed", static_cast<double>(s.shed_count), "count");
  }

  // net and fleet: net::Client over loopback TCP.
  const auto tcp_replay = [&](std::size_t layer, int port) {
    std::vector<Ledger> per(in.conns);
    std::vector<std::optional<net::Client>> clients(in.conns);
    const double wall = replay(spans, layer, n, in.conns,
                               [&](std::size_t c, std::size_t q) {
      exchange(clients[c], port, in.pool[q], in.expected[q], &per[c]);
    });
    for (const Ledger& l : per) ledger->merge(l);
    return wall;
  };
  if (in.w.serving) {
    ServerNode node(in.store, in.w.service);
    const double wall = tcp_replay(3, node.port());
    layer_stats("net", 3, wall);
    m->add("net.busy_shed", static_cast<double>(node.stats().busy_shed),
           "count");
  }
  if (in.w.backends > 0) {
    Fleet fleet(in.store, in.w.service, in.w.backends);
    if (!fleet.wait_healthy(static_cast<std::uint64_t>(in.w.backends), 30))
      throw std::runtime_error("fleet backends never became healthy");
    const double wall = tcp_replay(4, fleet.port());
    layer_stats("fleet", 4, wall);
    const fleet::ProxyStats s = fleet.stats();
    m->add("fleet.failovers", static_cast<double>(s.failovers), "count");
    m->add("fleet.busy_shed", static_cast<double>(s.busy_shed), "count");
  } else if (in.w.serving) {
    zero("fleet", {".failovers", ".busy_shed"});
  }
  // What a span itself costs: two clock reads around nothing.
  {
    constexpr int kProbes = 100000;
    double sink = 0;
    Timer t;
    for (int i = 0; i < kProbes; ++i) {
      const double start = spans.now_us();
      sink += spans.now_us() - start;
    }
    std::printf("  tracing: %.0f ns per span (empty-span probe, sink %.3g)\n",
                t.seconds() * 1e9 / kProbes, sink);
  }
  if (!spans_path.empty()) spans.write_csv(spans_path);
}

// ---------------------------------------------------------------- main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string spans;
  std::string revision = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: layerbench --workload=fleet_clean|tcp_noisy|build "
               "--seed=N --seconds=S --trace=0|1 --workdir=DIR\n"
               "  [--spans=FILE] [--revision=REV]\n");
  return 2;
}

int run(const Args& a, const WorkloadSpec& w) {
  const std::size_t nproc = host_nproc();
  const std::size_t conns = std::min<std::size_t>(4, nproc);
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  std::printf("host nproc=%zu kernel=%s build=%s compiler=%s rev=%s\n", nproc,
              kernels::dispatch().name, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, a.revision.c_str());
  std::printf("workload %s seed=%llu seconds=%g trace=%d circuit=%s "
              "patterns=%zu conns=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, w.circuit.c_str(), w.patterns,
              w.serving ? conns : 0);
  std::filesystem::create_directories(a.workdir);

  Ledger ledger;
  MetricSet m;
  std::vector<BuildTimes> times;
  std::vector<double> setup_s;
  std::string first_image;
  Built built;
  Topology topo;
  // Every repetition must build the same artifact as the first, which
  // alone runs the pair-count gates.
  const auto keep = [&](Built b) {
    const std::string image = b.image();
    if (times.empty()) first_image = image;
    else b.pf_pairs = built.pf_pairs;
    ledger.check(image == first_image,
                 "construction is deterministic across repetitions");
    times.push_back(b.t);
    built = std::move(b);
  };

  if (w.serving) {
    // Set-up, repeated: circuit, construction path, servers up (fleet:
    // until the proxy reports every backend healthy). The last topology
    // stays up for the measurement. The construction runs on one thread:
    // its phases here last tens of milliseconds, and a shared host's
    // scheduling noise swamped them when split across four.
    const auto start = std::chrono::steady_clock::now();
    while (setup_s.size() < kSetupReps ||
           seconds_since(start) < kSetupSeconds) {
      topo = Topology{};
      const auto t0 = std::chrono::steady_clock::now();
      keep(build_pipeline(w, load_circuit(w), /*threads=*/1,
                          a.workdir + "/repo", times.empty(), &ledger));
      topo = bring_up(w, built.store);
      setup_s.push_back(seconds_since(t0));
    }
  } else {
    // Set-up is loading the circuit and drawing the patterns, repeated;
    // the construction path then runs on the last load until --seconds
    // have passed.
    Circuit circuit;
    for (int r = 0; r < kBuildSetupReps; ++r) {
      const auto s0 = std::chrono::steady_clock::now();
      circuit = load_circuit(w);
      setup_s.push_back(seconds_since(s0));
    }
    const auto t0 = std::chrono::steady_clock::now();
    do {
      keep(build_pipeline(w, circuit, threads, a.workdir + "/repo",
                          times.empty(), &ledger));
    } while (times.size() < 3 || seconds_since(t0) < a.seconds);
  }
  std::printf("  construction s:");
  for (const BuildTimes& t : times) std::printf(" %.3f", t.total_s);
  std::printf("\n  %zu faults x %zu tests; pairs full=%llu s/d=%llu p/f=%llu; "
              "%zu construction reps\n",
              built.store->num_faults(), built.store->num_tests(),
              static_cast<unsigned long long>(built.full_pairs),
              static_cast<unsigned long long>(built.sd_pairs),
              static_cast<unsigned long long>(built.pf_pairs), times.size());

  // The query stream and its reference answers.
  const std::vector<pb::Query> pool =
      pb::make_query_stream(built.rm, w.pool, w.mix, a.seed);
  const Reference ref = reference_answers(*built.store, pool, threads);

  if (a.trace) {
    topo = Topology{};  // the replays bring up their own instances
    trace_layers({w, built.store, pool, ref.digests, conns}, a.spans, &m,
                 &ledger);
    add_build_layers(&m, times, built);
  } else {
    std::vector<pb::Sample> samples;
    double span_s = a.seconds;
    if (w.serving) {
      const double warmup = std::min(1.0, 0.1 * a.seconds);
      LoadResult r = closed_loop(topo.port(), pool, ref.digests, conns, warmup,
                                 a.seconds);
      ledger.merge(r.ledger);
      samples = std::move(r.samples);
      if (topo.fleet) {
        const fleet::ProxyStats s = topo.fleet->stats();
        std::printf("  proxy: failovers=%llu busy_shed=%llu\n",
                    static_cast<unsigned long long>(s.failovers),
                    static_cast<unsigned long long>(s.busy_shed));
      }
      topo = Topology{};
    } else {
      // No serving layer: the acquired store answers a clean check stream
      // through the engine directly, one query at a time. A first, untimed
      // pass checks every answer against the reference (a reply listing
      // thousands of tied candidates costs more to render than to
      // diagnose). Single-thread speed on a shared host wanders by tens of
      // percent over seconds, so the timed part is several more passes and
      // the windowed medians span all of them.
      for (std::size_t i = 0; i < pool.size(); ++i)
        ledger.check(pb::reply_digest(pb::expected_reply(diagnose_observed(
                         *built.store, pool[i].observed))) == ref.digests[i],
                     "acquired store answers like the reference");
      constexpr int kTimedPasses = 3;
      Timer wall;
      for (int pass = 0; pass < kTimedPasses; ++pass)
        for (const pb::Query& q : pool) {
          const double sent = wall.seconds();
          diagnose_observed(*built.store, q.observed);
          samples.push_back({sent, (wall.seconds() - sent) * 1e3});
        }
      span_s = wall.seconds();
    }
    const pb::WindowedStats ws = pb::windowed(samples, span_s);
    print_latency_line(samples, ws);
    std::vector<double> build_s;
    for (const BuildTimes& t : times) build_s.push_back(t.total_s);
    double rank_sum = 0;
    for (const std::size_t r : ref.ranks) rank_sum += static_cast<double>(r);
    m.add("setup_s", pb::median(setup_s), "s");
    m.add("diag_p50_ms", ws.p50, "ms");
    m.add("diag_p99_ms", ws.p99, "ms");
    m.add("diag_qps", ws.rate, "1/s");
    m.add("true_rank_mean", rank_sum / static_cast<double>(ref.ranks.size()),
          "rank");
    m.add("build_s", pb::median(build_s), "s");
    m.add("indistinguished_pairs", static_cast<double>(built.sd_pairs),
          "count");
    m.add("store_bytes", static_cast<double>(built.store->size_bytes()),
          "bytes");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::filesystem::remove_all(a.workdir + "/repo");

  m.print_table();
  std::printf("  operations: attempted=%llu ok=%llu busy=%llu error=%llu "
              "mismatched=%llu timed_out=%llu failed_share=%.6f\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.ok),
              static_cast<unsigned long long>(ledger.busy),
              static_cast<unsigned long long>(ledger.error),
              static_cast<unsigned long long>(ledger.mismatched),
              static_cast<unsigned long long>(ledger.timed_out),
              ledger.attempted ? static_cast<double>(ledger.failed()) /
                                     static_cast<double>(ledger.attempted)
                               : 0.0);
  for (const std::string& n : ledger.notes) std::printf("  ! %s\n", n.c_str());
  const bool correct = ledger.mismatched == 0 && ledger.error == 0 &&
                       ledger.timed_out == 0 && ledger.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed()),
              m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  Args a;
  WorkloadSpec w;
  try {
    const auto unknown = cli.unknown_flags(
        {"workload", "seed", "seconds", "trace", "workdir", "spans",
         "revision"});
    if (!unknown.empty())
      throw std::invalid_argument("unknown flag --" + unknown.front());
    a.workload = cli.get("workload");
    a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1, 0));
    a.seconds = static_cast<double>(cli.get_int("seconds", 10, 1, 600));
    a.trace = cli.get_int("trace", 0, 0, 1) == 1;
    a.workdir = cli.get("workdir");
    a.spans = cli.get("spans");
    a.revision = cli.get("revision", "unknown");
    if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
    if (!find_workload(a.workload, &w))
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return usage();
  }
  try {
    return run(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
