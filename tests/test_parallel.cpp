// Concurrency-layer tests: the shared-queue thread pool itself, and the
// bit-determinism guarantees of the parallel construction stages —
// build_response_matrix, run_procedure1 and run_procedure2 must produce
// identical results at every thread count. Registered under the ctest
// label "concurrency" so they can be singled out for -fsanitize=thread runs.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/embedded.h"
#include "bmcirc/registry.h"
#include "bmcirc/synth.h"
#include "core/baseline.h"
#include "core/procedure2.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "sim/response.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace sddict {
namespace {

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, ResolveDefaultsToHardware) {
  EXPECT_GE(ThreadPool::default_num_threads(), 1u);
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::default_num_threads());
  EXPECT_EQ(ThreadPool::resolve(3), 3u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForChunksPartitionExactly) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  std::vector<std::atomic<int>> hits(137);
  pool.parallel_for_chunks(0, hits.size(), 16,
                           [&](std::size_t b, std::size_t e) {
                             EXPECT_LT(b, e);
                             total.fetch_add(e - b);
                             for (std::size_t i = b; i < e; ++i)
                               hits[i].fetch_add(1);
                           });
  EXPECT_EQ(total.load(), hits.size());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SubmitFromWorkerTask) {
  // A task submitting follow-up work must not deadlock; the follow-up joins
  // the shared queue and wait_idle covers it too.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] { pool.submit([&] { done.fetch_add(1); }); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ManySmallWavesStress) {
  // Exercises the sleep/wake paths repeatedly (the shapes
  // run_procedure1 produces: many short parallel_for calls on one pool).
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  for (int wave = 0; wave < 200; ++wave)
    pool.parallel_for(0, 7, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 200u * (1 + 2 + 3 + 4 + 5 + 6 + 7));
}

// Overwrites the stack region a just-returned parallel_for_chunks frame
// used, so a worker still touching that frame's barrier sees garbage.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[512];
  for (std::size_t i = 0; i < sizeof junk; ++i)
    junk[i] = static_cast<unsigned char>(0xa5 ^ i);
}

TEST(ThreadPool, BackToBackChunkBarriersStress) {
  // parallel_for_chunks keeps its completion barrier on the caller's
  // stack. Thousands of back-to-back barriers, each followed by a call
  // that reuses the same stack, catch any worker that still locks the
  // barrier mutex or signals its condvar after the caller has returned.
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  constexpr std::size_t kRounds = 20000;
  for (std::size_t round = 0; round < kRounds; ++round) {
    pool.parallel_for_chunks(0, 16, 16, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(e - b, std::memory_order_relaxed);
    });
    scribble_stack();
  }
  EXPECT_EQ(sum.load(), kRounds * 16);
}

// ------------------------------------------------- deterministic results --

void expect_same_matrix(const ResponseMatrix& a, const ResponseMatrix& b) {
  ASSERT_EQ(a.num_faults(), b.num_faults());
  ASSERT_EQ(a.num_tests(), b.num_tests());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (std::size_t j = 0; j < a.num_tests(); ++j) {
    ASSERT_EQ(a.num_distinct(j), b.num_distinct(j)) << "test " << j;
    for (ResponseId id = 0; id < a.num_distinct(j); ++id)
      EXPECT_EQ(a.signature(j, id), b.signature(j, id))
          << "test " << j << " id " << id;
  }
  for (FaultId f = 0; f < a.num_faults(); ++f)
    for (std::size_t j = 0; j < a.num_tests(); ++j)
      ASSERT_EQ(a.response(f, j), b.response(f, j))
          << "fault " << f << " test " << j;
}

struct Workload {
  Netlist nl;
  FaultList faults;
  TestSet tests;
};

Workload synth_workload(std::size_t gates, std::size_t num_tests,
                        std::uint64_t seed) {
  SynthProfile profile;
  profile.name = "par";
  profile.inputs = 12;
  profile.outputs = 5;
  profile.dffs = 0;
  profile.gates = gates;
  profile.seed = seed;
  Workload w{generate_synthetic(profile), FaultList{}, TestSet{0}};
  w.faults = collapsed_fault_list(w.nl).collapsed;
  w.tests = TestSet(w.nl.num_inputs());
  Rng rng(seed);
  w.tests.add_random(num_tests, rng);
  return w;
}

TEST(ParallelDeterminism, ResponseMatrixIdenticalAcrossThreadCounts) {
  const Workload w = synth_workload(180, 150, 11);
  const ResponseMatrix serial =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 1});
  for (std::size_t threads : {2u, 8u}) {
    const ResponseMatrix parallel = build_response_matrix(
        w.nl, w.faults, w.tests, {.num_threads = threads});
    expect_same_matrix(serial, parallel);
  }
}

TEST(ParallelDeterminism, ResponseMatrixWithDiffOutputsIdentical) {
  const Workload w = synth_workload(120, 100, 3);
  const ResponseMatrix serial = build_response_matrix(
      w.nl, w.faults, w.tests, {.store_diff_outputs = true, .num_threads = 1});
  const ResponseMatrix parallel = build_response_matrix(
      w.nl, w.faults, w.tests, {.store_diff_outputs = true, .num_threads = 8});
  expect_same_matrix(serial, parallel);
  for (std::size_t j = 0; j < serial.num_tests(); ++j)
    for (ResponseId id = 0; id < serial.num_distinct(j); ++id)
      EXPECT_EQ(serial.diff_outputs(j, id), parallel.diff_outputs(j, id));
}

TEST(ParallelDeterminism, Procedure1IdenticalAcrossThreadCounts) {
  const Workload w = synth_workload(140, 80, 29);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 2});
  BaselineSelectionConfig cfg;
  cfg.lower = 10;
  cfg.calls1 = 12;
  cfg.seed = 5;
  cfg.num_threads = 1;
  const BaselineSelection serial = run_procedure1(rm, cfg);
  for (std::size_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    const BaselineSelection parallel = run_procedure1(rm, cfg);
    EXPECT_EQ(serial.baselines, parallel.baselines) << threads << " threads";
    EXPECT_EQ(serial.distinguished_pairs, parallel.distinguished_pairs);
    EXPECT_EQ(serial.indistinguished_pairs, parallel.indistinguished_pairs);
    EXPECT_EQ(serial.calls_used, parallel.calls_used);
  }
}

TEST(ParallelDeterminism, Procedure2IdenticalAcrossThreadCounts) {
  // Procedure 2 scores blocks of tests ahead in parallel and commits them
  // in test order up to the first replacement: every thread count must
  // reproduce the one-thread run, from Procedure 1's baselines and from
  // the fault-free ones (many replacements, so many discarded blocks).
  for (const char* circuit : {"s298", "s1423", "s5378"}) {
    const Netlist nl = full_scan(load_benchmark(circuit));
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(7);
    tests.add_random(100, rng);
    const ResponseMatrix rm =
        build_response_matrix(nl, faults, tests, {.num_threads = 4});
    BaselineSelectionConfig bcfg;
    bcfg.calls1 = 4;
    bcfg.num_threads = 4;
    const std::vector<std::vector<ResponseId>> initials = {
        run_procedure1(rm, bcfg).baselines,
        std::vector<ResponseId>(rm.num_tests(), 0)};
    for (std::size_t i = 0; i < initials.size(); ++i) {
      const Procedure2Result serial =
          run_procedure2(rm, initials[i], {.num_threads = 1});
      for (std::size_t threads : {2u, 4u, 8u}) {
        const std::string what = std::string(circuit) + " initial=" +
                                 std::to_string(i) +
                                 " threads=" + std::to_string(threads);
        const Procedure2Result parallel =
            run_procedure2(rm, initials[i], {.num_threads = threads});
        EXPECT_EQ(serial.baselines, parallel.baselines) << what;
        EXPECT_EQ(serial.sweeps, parallel.sweeps) << what;
        EXPECT_EQ(serial.replacements, parallel.replacements) << what;
        EXPECT_EQ(serial.distinguished_pairs, parallel.distinguished_pairs)
            << what;
        EXPECT_EQ(serial.indistinguished_pairs,
                  parallel.indistinguished_pairs)
            << what;
      }
    }
  }
}

TEST(ParallelDeterminism, RepeatedRunsStable) {
  // Same seed, same thread count, run twice: no hidden global state.
  const Workload w = synth_workload(100, 60, 41);
  BaselineSelectionConfig cfg;
  cfg.calls1 = 6;
  cfg.seed = 13;
  cfg.num_threads = 4;
  const ResponseMatrix rm1 =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4});
  const ResponseMatrix rm2 =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4});
  expect_same_matrix(rm1, rm2);
  const BaselineSelection a = run_procedure1(rm1, cfg);
  const BaselineSelection b = run_procedure1(rm2, cfg);
  EXPECT_EQ(a.baselines, b.baselines);
  EXPECT_EQ(a.indistinguished_pairs, b.indistinguished_pairs);
  EXPECT_EQ(a.calls_used, b.calls_used);
}

TEST(ParallelDeterminism, C17MatrixMatchesAtEveryThreadCount) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(2);
  tests.add_random(20, rng);
  const ResponseMatrix one =
      build_response_matrix(nl, faults, tests, {.num_threads = 1});
  for (std::size_t threads : {2u, 8u}) {
    const ResponseMatrix many =
        build_response_matrix(nl, faults, tests, {.num_threads = threads});
    expect_same_matrix(one, many);
  }
}

// ----------------------------------------------------- Netlist topology --

// A netlist whose topology cache has never been built: a random DAG of
// two-input gates, identical on every call.
Netlist cold_random_dag() {
  static constexpr GateType kTypes[] = {GateType::kAnd, GateType::kNand,
                                        GateType::kOr, GateType::kNor,
                                        GateType::kXor};
  Netlist nl("dag");
  Rng rng(11);
  std::vector<GateId> ids;
  for (int i = 0; i < 16; ++i)
    ids.push_back(nl.add_gate(GateType::kInput, "i" + std::to_string(i)));
  for (int i = 0; i < 300; ++i) {
    const GateId a = ids[rng.below(ids.size())];
    const GateId b = ids[rng.below(ids.size())];
    ids.push_back(nl.add_gate(kTypes[rng.below(5)], "g" + std::to_string(i),
                              {a, b}));
  }
  for (std::size_t i = ids.size() - 8; i < ids.size(); ++i)
    nl.mark_output(ids[i]);
  return nl;
}

TEST(NetlistTopology, ConcurrentFirstUseAgrees) {
  const Netlist reference = cold_random_dag();
  const std::vector<std::uint32_t> levels = reference.levels();
  const std::vector<GateId> order = reference.topo_order();
  for (int round = 0; round < 20; ++round) {
    const Netlist nl = cold_random_dag();
    std::atomic<bool> go{false};
    std::vector<int> ok(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < ok.size(); ++t)
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        ok[t] = nl.levels() == levels && nl.topo_order() == order &&
                nl.depth() == reference.depth();
      });
    go.store(true);
    for (auto& th : threads) th.join();
    for (std::size_t t = 0; t < ok.size(); ++t)
      EXPECT_EQ(ok[t], 1) << "round " << round << " thread " << t;
  }
}

TEST(NetlistTopology, ResponseMatrixOnColdNetlist) {
  // build_response_matrix constructs a simulator on every chunk thread, so
  // a cold netlist is first used by several threads at once.
  const Netlist warm = cold_random_dag();
  const FaultList faults = collapsed_fault_list(warm).collapsed;
  TestSet tests(warm.num_inputs());
  Rng rng(5);
  tests.add_random(100, rng);
  const ResponseMatrix serial =
      build_response_matrix(warm, faults, tests, {.num_threads = 1});
  for (int round = 0; round < 10; ++round) {
    const Netlist cold = cold_random_dag();
    expect_same_matrix(
        serial, build_response_matrix(cold, faults, tests, {.num_threads = 4}));
  }
}

}  // namespace
}  // namespace sddict
