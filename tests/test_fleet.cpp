// Supervised serving fleet (ISSUE 8): the round-robin proxy with health
// probing, transparent failover and epoch-consistent hot swap, plus the
// process supervisor.
//
//  * byte identity through the proxy: replies proxied to in-process
//    NetServer backends match the direct engine rendering modulo the
//    volatile timing line, and the fleet admin verbs (`!health`,
//    `!fleet`, `stats`) answer in their documented shapes;
//  * transparent failover: with the fleet.backend.reset failpoint
//    severing backend connections mid-conversation, every request is
//    still answered exactly once with the correct ranking and the proxy
//    records failovers — the client never sees a duplicate, a hang, or
//    a half-reply;
//  * epoch-consistent flip: publishing v2 changes nothing until the
//    fleet-wide `!reload`; afterwards every reply is v2. A session
//    pipelining requests across the flip sees a monotone version
//    sequence — v1 replies, then v2 replies, never an interleave;
//  * rolling restart: `!rolling` drains and restarts every backend in
//    turn (generations bump) while the fleet keeps answering;
//  * supervisor: a kill -9'd child is reaped and respawned with a bumped
//    generation, an asked-for restart() is graceful, shutdown() leaves
//    no processes behind.
//
// Registered under the "serving" ctest label.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "diag/testerlog.h"
#include "dict/full_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "fleet/proxy.h"
#include "fleet/supervisor.h"
#include "net/backends.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "repo/repository.h"
#include "serve/diagnosis_service.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/process.h"
#include "util/rng.h"

namespace sddict {
namespace {

// ------------------------------------------------------------- fixtures --

// Two store versions with genuinely different rankings: the same test
// count (so one tester log parses under both) over different synthesized
// circuits.
ResponseMatrix fleet_matrix(std::uint64_t seed) {
  SynthProfile profile;
  profile.name = "fleet";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 80;
  profile.seed = seed;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(21);
  tests.add_random(40, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm1() {
  static const ResponseMatrix m = fleet_matrix(0xf1ee7);
  return m;
}
const ResponseMatrix& rm2() {
  static const ResponseMatrix m = fleet_matrix(0x0dd5);
  return m;
}

const SameDifferentDictionary& sd1() {
  static const SameDifferentDictionary d = SameDifferentDictionary::build(
      rm1(), std::vector<ResponseId>(rm1().num_tests(), 0));
  return d;
}
const SameDifferentDictionary& sd2() {
  static const SameDifferentDictionary d = SameDifferentDictionary::build(
      rm2(), std::vector<ResponseId>(rm2().num_tests(), 0));
  return d;
}

std::vector<Observed> fault_observation(FaultId f) {
  static const FullDictionary full = FullDictionary::build(rm1());
  std::vector<ResponseId> obs(rm1().num_tests());
  for (std::size_t t = 0; t < rm1().num_tests(); ++t)
    obs[t] = full.entry(f, t);
  return qualify(obs);
}

std::string frame_text(const std::vector<Observed>& obs) {
  std::ostringstream os;
  write_testerlog(os, obs);
  return os.str();
}

std::string canonical(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines)
    if (l.rfind("timing ", 0) != 0) out += l + "\n";
  return out;
}

// The serial reference against a given dictionary version.
std::string expected_reply(const SameDifferentDictionary& sd,
                           const std::vector<Observed>& obs) {
  ServiceResponse r;
  r.diagnosis = diagnose_observed(sd, obs);
  std::ostringstream os;
  net::write_response(os, r, /*dropped=*/0);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return canonical(lines);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sddict_fleet_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm_all(); }
};

// ------------------------------------------- in-process backend source --

// Gate config for the in-process backends: replies must be bit-identical.
ServiceOptions gate_options() {
  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.batch = 1;
  sopts.cache = 0;
  return sopts;
}

// A BackendSource over in-process NetServers, each over the repository
// backend sddict_serve --repo runs: real sockets, real line protocol, no
// child processes — so tests control death and restart
// deterministically. tick()/restart() run on the proxy loop thread;
// the test's main thread uses stop_node() under the same lock.
class TestBackendSource : public fleet::BackendSource {
 public:
  TestBackendSource(DictionaryRepository* repo, std::string circuit, int n)
      : repo_(repo), circuit_(std::move(circuit)) {
    nodes_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) start_node(i);
  }
  ~TestBackendSource() override { shutdown(); }

  void tick(double, fleet::FleetView* view) override {
    std::lock_guard<std::mutex> lk(mutex_);
    view->backends.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      view->backends.push_back(fleet::FleetBackendAddr{
          static_cast<int>(i), "127.0.0.1", n.server ? n.port : -1,
          n.generation, static_cast<pid_t>(1000 + i)});
    }
    view->respawns = respawns_;
  }

  bool restart(int id) override {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_node_locked(id);
    start_node_locked(id);
    return true;
  }

  void shutdown() override {
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      stop_node_locked(static_cast<int>(i));
  }

  // Test hooks.
  void start_node(int id) {
    std::lock_guard<std::mutex> lk(mutex_);
    start_node_locked(id);
  }
  std::uint64_t generation(int id) {
    std::lock_guard<std::mutex> lk(mutex_);
    return nodes_[static_cast<std::size_t>(id)].generation;
  }

 private:
  struct Node {
    std::unique_ptr<net::RepoBackend> backend;
    std::unique_ptr<net::NetServer> server;
    std::thread thread;
    int port = -1;
    std::uint64_t generation = 0;
  };

  void start_node_locked(int id) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.server) return;
    n.backend =
        std::make_unique<net::RepoBackend>(*repo_, gate_options(), circuit_);
    net::NetServerOptions nopts;
    nopts.tcp_port = 0;
    n.server = std::make_unique<net::NetServer>(*n.backend, nopts);
    n.server->start();
    n.port = n.server->tcp_port();
    n.thread = std::thread([srv = n.server.get()] { srv->run(); });
    ++n.generation;
    if (n.generation > 1) ++respawns_;
  }

  void stop_node_locked(int id) {
    Node& n = nodes_[static_cast<std::size_t>(id)];
    if (!n.server) return;
    n.server->request_stop();
    n.thread.join();
    n.server.reset();
    n.backend.reset();
    n.port = -1;
  }

  DictionaryRepository* repo_;
  std::string circuit_;
  std::mutex mutex_;
  std::vector<Node> nodes_;
  std::uint64_t respawns_ = 0;
};

// Fleet-under-test: a shared repository with v1 published, N in-process
// backends, and the proxy on a background thread.
class TestFleet {
 public:
  explicit TestFleet(const std::string& name, int backends = 2,
                     fleet::ProxyOptions popts = tuned_options()) {
    dir_ = fresh_dir(name);
    repo_ = std::make_unique<DictionaryRepository>(dir_);
    repo_->publish("fleet", StoreSource::kSameDifferent,
                   SignatureStore::build(sd1()), Provenance{});
    source_ =
        std::make_unique<TestBackendSource>(repo_.get(), "fleet", backends);
    proxy_ = std::make_unique<fleet::FleetProxy>(*source_, popts);
    proxy_->start();
    thread_ = std::thread([this] { proxy_->run(); });
  }

  ~TestFleet() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      proxy_->request_stop();
      thread_.join();
      source_->shutdown();
    }
  }

  static fleet::ProxyOptions tuned_options() {
    fleet::ProxyOptions p;
    p.probe_interval_ms = 25;  // heal fast: tests wait on reinstatement
    p.probation_ms = 50;
    p.max_failovers = 10;
    return p;
  }

  DictionaryRepository& repo() { return *repo_; }
  TestBackendSource& source() { return *source_; }
  fleet::FleetProxy& proxy() { return *proxy_; }
  net::Client connect() {
    return net::Client::connect_tcp("127.0.0.1", proxy_->tcp_port(), 10);
  }
  void publish_v2() {
    repo_->publish("fleet", StoreSource::kSameDifferent,
                   SignatureStore::build(sd2()), Provenance{});
  }

  bool wait_stats(const std::function<bool(const fleet::ProxyStats&)>& pred,
                  double timeout_s = 5.0) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(proxy_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred(proxy_->stats());
  }

 private:
  std::string dir_;
  std::unique_ptr<DictionaryRepository> repo_;
  std::unique_ptr<TestBackendSource> source_;
  std::unique_ptr<fleet::FleetProxy> proxy_;
  std::thread thread_;
};

// ----------------------------------------------------- proxy basics ------

TEST(FleetProxying, ProxiedRepliesMatchDirectEngine) {
  TestFleet fleet("basic");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  Rng rng(0x81);
  for (int i = 0; i < 8; ++i) {
    const auto obs =
        fault_observation(static_cast<FaultId>(rng.below(rm1().num_faults())));
    const net::Reply reply = client.request(frame_text(obs));
    EXPECT_FALSE(reply.busy);
    EXPECT_FALSE(reply.error);
    EXPECT_EQ(canonical(reply.lines), expected_reply(sd1(), obs))
        << "request " << i;
  }
  // Both backends took work: 8 requests round-robin over 2 healthy
  // backends cannot land on one.
  std::string fleet_lines;
  const net::Reply fl = client.request("!fleet\n");
  for (const std::string& l : fl.lines) fleet_lines += l + "\n";
  EXPECT_NE(fleet_lines.find("state=healthy"), std::string::npos)
      << fleet_lines;
  // The one-line admin verbs answer without `done`.
  const std::string health = client.command_line("!health");
  EXPECT_EQ(health.rfind("health state=ok healthy=2 total=2", 0), 0u)
      << health;
  const std::string stats = client.command_line("stats");
  EXPECT_EQ(stats.rfind("stats accepted=", 0), 0u) << stats;
  // Unknown verbs get an explicit error; the session survives.
  const net::Reply bad = client.request("!frobnicate\n");
  EXPECT_TRUE(bad.error);
  const auto obs = fault_observation(1);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(sd1(), obs));
}

TEST(FleetProxying, MalformedFrameAnswersThroughBackend) {
  TestFleet fleet("malformed");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  const net::Reply bad = client.request("t 0 garbage\nend\n");
  EXPECT_TRUE(bad.error);  // the backend's parse error, proxied verbatim
  const auto obs = fault_observation(2);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(sd1(), obs));
}

// --------------------------------------------------------- failover ------

TEST(FleetProxying, FailoverAnswersEveryRequestExactlyOnce) {
  FailpointGuard guard;
  TestFleet fleet("failover");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  // Every 5th backend-connection write severs the connection: requests
  // outstanding on it fail over and are re-dealt. Each request still gets
  // exactly one, correct reply.
  failpoint::arm_cyclic("fleet.backend.reset", 5);
  Rng rng(0x82);
  for (int i = 0; i < 25; ++i) {
    const auto obs =
        fault_observation(static_cast<FaultId>(rng.below(rm1().num_faults())));
    const net::Reply reply = client.request(frame_text(obs));
    ASSERT_FALSE(reply.busy) << "request " << i;
    ASSERT_FALSE(reply.error) << "request " << i;
    EXPECT_EQ(canonical(reply.lines), expected_reply(sd1(), obs))
        << "request " << i;
  }
  failpoint::disarm("fleet.backend.reset");
  const fleet::ProxyStats s = fleet.proxy().stats();
  EXPECT_GE(s.failovers, 1u);
  EXPECT_GE(s.backend_disconnects, 1u);
  // Exactly-once: one reply record per request plus the session's own
  // verb replies — nothing extra ever hit the wire (the client would have
  // thrown on an unexpected line), and nothing was dropped.
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.pending, 0u);
}

TEST(FleetProxying, DeadBackendHealsAndReenters) {
  TestFleet fleet("heal");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  // Simulate a crash + supervisor respawn: node 0 goes away and comes
  // back with a bumped generation.
  fleet.source().restart(0);
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.respawns >= 1; }));
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  EXPECT_EQ(fleet.source().generation(0), 2u);
  net::Client client = fleet.connect();
  const auto obs = fault_observation(3);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(sd1(), obs));
}

// -------------------------------------------------------- epoch flip ------

TEST(FleetProxying, EpochFlipIsFleetWideAndMonotone) {
  TestFleet fleet("flip");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  const auto obs = fault_observation(5);
  const std::string v1 = expected_reply(sd1(), obs);
  const std::string v2 = expected_reply(sd2(), obs);
  ASSERT_NE(v1, v2) << "fixture defect: versions must rank differently";

  // Publishing alone changes nothing: the fleet still serves v1.
  fleet.publish_v2();
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(canonical(client.request(frame_text(obs)).lines), v1);

  // A pipelined burst straddling the flip: requests, the flip, more
  // requests — all on one session. The version sequence must be monotone
  // (v1...v1, v2...v2) and everything after the reload ack must be v2.
  std::string burst;
  for (int i = 0; i < 3; ++i) burst += frame_text(obs);
  burst += "!reload\n";
  for (int i = 0; i < 3; ++i) burst += frame_text(obs);
  client.send_raw(burst);
  bool flipped = false;
  for (int i = 0; i < 3; ++i) {
    const std::string got = canonical(client.read_reply().lines);
    if (got == v2) flipped = true;
    EXPECT_EQ(got, flipped ? v2 : v1) << "pre-flip reply " << i;
  }
  const net::Reply ack = client.read_reply();
  ASSERT_FALSE(ack.error);
  EXPECT_EQ(ack.lines.front().rfind("reloaded backends=", 0), 0u)
      << ack.lines.front();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(canonical(client.read_reply().lines), v2)
        << "post-flip reply " << i;

  // Counters are published once per loop tick, so the ack can outrun the
  // snapshot by one iteration — poll rather than read once.
  EXPECT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.flips == 1; }));

  // A backend joining after the flip (fresh generation) must enter at v2:
  // the entry reload re-proves the version before it serves.
  fleet.source().restart(0);
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(canonical(client.request(frame_text(obs)).lines), v2);
}

// ---------------------------------------------------- rolling restart ------

TEST(FleetProxying, RollingRestartCyclesEveryBackend) {
  TestFleet fleet("rolling");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  const net::Reply reply = client.request("!rolling\n");
  ASSERT_FALSE(reply.error) << reply.error_text;
  EXPECT_EQ(reply.lines.front(), "rolling restarted=2");
  EXPECT_EQ(fleet.source().generation(0), 2u);
  EXPECT_EQ(fleet.source().generation(1), 2u);
  // Same one-tick snapshot lag as the flip counter: poll, don't read once.
  EXPECT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.rolling_restarts == 1; }));
  // The fleet still serves.
  const auto obs = fault_observation(7);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(sd1(), obs));
}

// ------------------------------------------------------------- drain ------

TEST(FleetProxying, DrainAnswersEveryAcceptedRequest) {
  TestFleet fleet("drain");
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.backends_healthy == 2; }));
  net::Client client = fleet.connect();
  const auto obs = fault_observation(6);
  const std::string frame = frame_text(obs);
  client.send_raw(frame + frame + frame);
  // Stop only after the proxy has parsed all three frames; drain mode
  // stops reading but must answer everything already parsed.
  ASSERT_TRUE(fleet.wait_stats(
      [](const fleet::ProxyStats& s) { return s.frames >= 3; }));
  fleet.proxy().request_stop();
  for (int i = 0; i < 3; ++i) {
    const net::Reply reply = client.read_reply();
    EXPECT_FALSE(reply.busy) << "reply " << i;
    EXPECT_EQ(canonical(reply.lines), expected_reply(sd1(), obs))
        << "reply " << i;
  }
  fleet.stop();  // joins run(); must not hang
  const fleet::ProxyStats s = fleet.proxy().stats();
  EXPECT_EQ(s.active_sessions, 0u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

// --------------------------------------------------------- supervisor ------

// /bin/sh stands in for sddict_serve: the supervisor appends
// `--tcp=0 --port-file=PATH` after the configured args `-c SCRIPT`, so
// inside the script $0 is "--tcp=0" and $1 is "--port-file=PATH".
constexpr const char* kFakeBackendScript =
    "pf=\"${1#--port-file=}\"; printf '127.0.0.1:1234\\n' > \"$pf.tmp\"; "
    "mv \"$pf.tmp\" \"$pf\"; trap 'exit 0' TERM; while :; do sleep 0.05; "
    "done";

double mono_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Drive tick() until `pred` holds on the view or the deadline passes.
bool tick_until(fleet::Supervisor& sup,
                const std::function<bool(const fleet::FleetView&)>& pred,
                double timeout_s = 10.0) {
  fleet::FleetView view;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    sup.tick(mono_ms(), &view);
    if (pred(view)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(FleetSupervisor, RespawnsKill9AndRestartsGracefully) {
  fleet::SupervisorOptions sopts;
  sopts.serve_binary = "/bin/sh";
  sopts.backend_args = {"-c", kFakeBackendScript};
  sopts.state_dir = fresh_dir("supervisor");
  sopts.backends = 1;
  sopts.respawn_min_ms = 20;
  sopts.respawn_max_ms = 200;
  fleet::Supervisor sup(sopts);

  // First spawn: up with the port the fake wrote, generation 1.
  ASSERT_TRUE(tick_until(sup, [](const fleet::FleetView& v) {
    return v.backends.size() == 1 && v.backends[0].port == 1234;
  }));
  fleet::FleetView view;
  sup.tick(mono_ms(), &view);
  EXPECT_EQ(view.backends[0].generation, 1u);
  const pid_t first_pid = view.backends[0].pid;
  ASSERT_GT(first_pid, 0);

  // kill -9: reaped, respawned, generation bumps, respawns counts it.
  ASSERT_TRUE(proc::send_signal(first_pid, SIGKILL));
  ASSERT_TRUE(tick_until(sup, [](const fleet::FleetView& v) {
    return v.backends[0].port == 1234 && v.backends[0].generation == 2;
  }));
  EXPECT_EQ(sup.respawns(), 1u);
  sup.tick(mono_ms(), &view);
  EXPECT_NE(view.backends[0].pid, first_pid);
  EXPECT_TRUE(proc::alive(view.backends[0].pid));

  // restart(): graceful SIGTERM (the fake traps it and exits 0), then a
  // fresh generation.
  ASSERT_TRUE(sup.restart(0));
  ASSERT_TRUE(tick_until(sup, [](const fleet::FleetView& v) {
    return v.backends[0].port == 1234 && v.backends[0].generation == 3;
  }));
  EXPECT_EQ(sup.respawns(), 2u);

  // shutdown() leaves nothing behind.
  sup.tick(mono_ms(), &view);
  const pid_t last_pid = view.backends[0].pid;
  sup.shutdown();
  EXPECT_FALSE(proc::alive(last_pid));
}

TEST(FleetSupervisor, SpawnFailureBacksOffInsteadOfSpinning) {
  fleet::SupervisorOptions sopts;
  sopts.serve_binary = "/nonexistent/sddict_serve";
  sopts.backend_args = {};
  sopts.state_dir = fresh_dir("supervisor_bad");
  sopts.backends = 1;
  sopts.respawn_min_ms = 20;
  sopts.respawn_max_ms = 100;
  fleet::Supervisor sup(sopts);
  fleet::FleetView view;
  // The exec fails (child exits 127); the port never appears and the
  // supervisor keeps the backend in backoff rather than wedging or
  // crashing.
  const double start = mono_ms();
  while (mono_ms() - start < 300) {
    sup.tick(mono_ms(), &view);
    ASSERT_EQ(view.backends[0].port, -1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sup.shutdown();
}

}  // namespace
}  // namespace sddict
