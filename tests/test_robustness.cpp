// Robustness suite (ISSUE: bounded, cancellable, fail-safe construction):
//
//  * ThreadPool exception safety — a throwing task is captured and rethrown
//    at the join point, siblings are cancelled, and the pool stays usable;
//  * RunBudget / BudgetScope semantics and the anytime guarantees of every
//    budgeted entry point (fault simulation, ATPG, Procedures 1 and 2),
//    including the Procedure-1 differential: a deadline-expired run is
//    bit-identical to an unbudgeted run truncated at the same restart
//    index, at one thread and at eight;
//  * fault injection through library failpoints (src/util/failpoint.h):
//    injected faults surface as typed errors, never aborts, and the system
//    works again afterwards.
//
// Registered under the ctest labels "robustness" and "concurrency" so the
// sanitizer presets pick it up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/registry.h"
#include "bmcirc/synth.h"
#include "core/baseline.h"
#include "core/multibaseline.h"
#include "core/procedure2.h"
#include "diag/engine.h"
#include "diag/observe.h"
#include "diag/testerlog.h"
#include "dict/firstfail_dict.h"
#include "fault/bridge.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "faultinject.h"
#include "netlist/transform.h"
#include "sim/response.h"
#include "tgen/diagset.h"
#include "tgen/ndetect.h"
#include "tgen/podem.h"
#include "util/budget.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace sddict {
namespace {

using testing::ScopedFailPoint;
using testing::flip_byte;

// ------------------------------------------------------------- fixtures --

struct Workload {
  Netlist nl;
  FaultList faults;
  TestSet tests;
};

Workload synth_workload(std::size_t gates, std::size_t num_tests,
                        std::uint64_t seed) {
  SynthProfile profile;
  profile.name = "rob";
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

RunBudget cancelled_budget() {
  RunBudget b;
  b.cancel.cancel();
  return b;
}

void expect_same_selection(const BaselineSelection& a,
                           const BaselineSelection& b, const char* what) {
  EXPECT_EQ(a.baselines, b.baselines) << what;
  EXPECT_EQ(a.distinguished_pairs, b.distinguished_pairs) << what;
  EXPECT_EQ(a.indistinguished_pairs, b.indistinguished_pairs) << what;
  EXPECT_EQ(a.calls_used, b.calls_used) << what;
}

// ------------------------------------------------ ThreadPool exceptions --

TEST(ThreadPoolRobust, PoisonedTaskAmongManySurfacesAtWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&ran, i] {
      if (i == 37) throw std::runtime_error("poison");
      ran.fetch_add(1);
    });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle did not rethrow the poisoned task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "poison");
  }
  // Raw submits do not consult the cancellation flag: the other 99 all ran.
  EXPECT_EQ(ran.load(), 99);

  // The rethrow cleared the error and the cancellation it raised; the pool
  // is immediately reusable.
  for (int i = 0; i < 10; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 109);
}

TEST(ThreadPoolRobust, ParallelForBodyThrowRethrownAtBarrier) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t i) {
                                   if (i == 500)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool usable again, full coverage.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000u);
}

TEST(ThreadPoolRobust, ParallelForChunksThrowRethrownAtBarrier) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunks(0, 512, 32,
                                        [](std::size_t b, std::size_t) {
                                          if (b >= 256)
                                            throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_chunks(0, 512, 32,
                           [&](std::size_t b, std::size_t e) {
                             covered.fetch_add(e - b);
                           });
  EXPECT_EQ(covered.load(), 512u);
}

TEST(ThreadPoolRobust, SingleWorkerInlinePathPropagatesAndRecovers) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPoolRobust, CancelSkipsBodiesResetRestores) {
  ThreadPool pool(4);
  pool.cancel();
  EXPECT_TRUE(pool.cancel_requested());
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0u);

  pool.reset_cancel();
  EXPECT_FALSE(pool.cancel_requested());
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100u);
}

// ------------------------------------------------- RunBudget primitives --

TEST(Budget, DeadlineLatches) {
  RunBudget b;
  b.max_seconds = 1e-9;
  BudgetScope scope(b);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(scope.stop());
  EXPECT_TRUE(scope.stopped());
  EXPECT_EQ(scope.reason(), StopReason::kDeadline);
  // Latched: stays stopped with a stable reason.
  EXPECT_TRUE(scope.stop());
  EXPECT_EQ(scope.reason(), StopReason::kDeadline);
}

TEST(Budget, PreCancelledTokenStopsImmediately) {
  BudgetScope scope(cancelled_budget());
  EXPECT_TRUE(scope.stop());
  EXPECT_EQ(scope.reason(), StopReason::kCancelled);
}

TEST(Budget, UnlimitedBudgetNeverStops) {
  BudgetScope scope(RunBudget{});
  EXPECT_FALSE(scope.stop());
  EXPECT_FALSE(scope.stopped());
  EXPECT_EQ(scope.reason(), StopReason::kCompleted);
}

TEST(Budget, TripFirstReasonWins) {
  BudgetScope scope(RunBudget{});
  scope.trip(StopReason::kMaxRestarts);
  scope.trip(StopReason::kMaxPatterns);
  EXPECT_TRUE(scope.stop());
  EXPECT_EQ(scope.reason(), StopReason::kMaxRestarts);
}

TEST(Budget, NestedSharesTokenNotCaps) {
  RunBudget outer;
  outer.max_restarts = 5;
  outer.max_patterns = 7;
  BudgetScope scope(outer);
  const RunBudget inner = scope.nested();
  // Caps belong to the outer consumer and are not inherited.
  EXPECT_EQ(inner.max_restarts, 0u);
  EXPECT_EQ(inner.max_patterns, 0u);
  // Cancelling the outer token stops nested scopes too.
  BudgetScope nested_scope(inner);
  EXPECT_FALSE(nested_scope.stop());
  outer.cancel.cancel();
  EXPECT_TRUE(nested_scope.stop());
  EXPECT_EQ(nested_scope.reason(), StopReason::kCancelled);
}

TEST(Budget, FoldLegacyDeadlinePrecedence) {
  EXPECT_DOUBLE_EQ(fold_legacy_deadline(RunBudget{}, 3.5).max_seconds, 3.5);
  RunBudget own;
  own.max_seconds = 2.0;
  EXPECT_DOUBLE_EQ(fold_legacy_deadline(own, 3.5).max_seconds, 2.0);
}

// --------------------------------------------- Procedure 1 anytime runs --

// The acceptance criterion of the budgeted pipeline: a deadline-expired
// Procedure-1 run must be bit-identical to an unbudgeted run truncated at
// the same restart index, at every thread count.
TEST(AnytimeProcedure1, DeadlineDifferentialBitIdentical) {
  const Workload w = synth_workload(200, 100, 7);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4});
  // The full dictionary lower-bounds every dictionary; with a nonzero floor
  // and target_indistinguished == 0, only the budget can stop the loop.
  ASSERT_GT(FullDictionary::build(rm).indistinguished_pairs(), 0u);

  BaselineSelectionConfig cfg;
  cfg.lower = 10;
  cfg.calls1 = 1 << 20;
  cfg.seed = 3;
  cfg.num_threads = 8;
  cfg.budget.max_seconds = 0.1;
  const BaselineSelection sel = run_procedure1(rm, cfg);
  ASSERT_FALSE(sel.completed);
  EXPECT_EQ(sel.stop_reason, StopReason::kDeadline);
  ASSERT_GE(sel.calls_used, 1u);

  BaselineSelectionConfig replay = cfg;
  replay.budget = RunBudget{};
  replay.budget.max_restarts = sel.calls_used;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    replay.num_threads = threads;
    const BaselineSelection again = run_procedure1(rm, replay);
    expect_same_selection(sel, again,
                          threads == 1 ? "replay at 1 thread"
                                       : "replay at 8 threads");
    EXPECT_FALSE(again.completed);
    EXPECT_EQ(again.stop_reason, StopReason::kMaxRestarts);
  }
}

TEST(AnytimeProcedure1, MaxRestartsCapConsumesExactly) {
  const Workload w = synth_workload(150, 80, 11);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 2});
  ASSERT_GT(FullDictionary::build(rm).indistinguished_pairs(), 0u);

  BaselineSelectionConfig cfg;
  cfg.calls1 = 1 << 20;
  cfg.seed = 5;
  cfg.budget.max_restarts = 3;
  cfg.num_threads = 1;
  const BaselineSelection serial = run_procedure1(rm, cfg);
  EXPECT_EQ(serial.calls_used, 3u);
  EXPECT_FALSE(serial.completed);
  EXPECT_EQ(serial.stop_reason, StopReason::kMaxRestarts);
  // The cap is part of the deterministic reduction: identical at any
  // thread count.
  cfg.num_threads = 8;
  expect_same_selection(serial, run_procedure1(rm, cfg), "capped at 8 threads");
}

TEST(AnytimeProcedure1, PreCancelledFallsBackToPassFailFloor) {
  const Workload w = synth_workload(120, 60, 13);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 2});

  BaselineSelectionConfig cfg;
  cfg.budget = cancelled_budget();
  cfg.num_threads = 4;
  const BaselineSelection sel = run_procedure1(rm, cfg);
  EXPECT_FALSE(sel.completed);
  EXPECT_EQ(sel.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(sel.calls_used, 0u);
  // Floor: the pass/fail selection (every baseline the fault-free id).
  ASSERT_EQ(sel.baselines.size(), rm.num_tests());
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    EXPECT_EQ(sel.baselines[t], rm.fault_free_id(t));
  EXPECT_EQ(sel.indistinguished_pairs,
            PassFailDictionary::build(rm).indistinguished_pairs());
}

// ------------------------------------------- other budgeted entry points --

TEST(AnytimePipeline, PreCancelledResponseMatrixIsStructurallyValid) {
  const Workload w = synth_workload(150, 60, 17);
  ResponseMatrixOptions opts;
  opts.num_threads = 4;
  opts.budget = cancelled_budget();
  ResponseMatrixStatus status;
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, opts, &status);
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(status.faults_simulated, 0u);
  // Unreached entries keep response id 0 and id 0 is still the fault-free
  // response of every test, so downstream consumers cannot misread the
  // partial matrix.
  ASSERT_EQ(rm.num_tests(), w.tests.size());
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    EXPECT_EQ(rm.fault_free_id(t), 0u);
    EXPECT_EQ(rm.num_distinct(t), 1u);
  }
  for (FaultId f = 0; f < rm.num_faults(); ++f)
    for (std::size_t t = 0; t < rm.num_tests(); ++t)
      ASSERT_EQ(rm.response(f, t), 0u);
}

TEST(AnytimePipeline, PreCancelledNDetect) {
  const Workload w = synth_workload(120, 0, 19);
  NDetectOptions opts;
  opts.budget = cancelled_budget();
  const NDetectResult res = generate_ndetect(w.nl, w.faults, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.stop_reason, StopReason::kCancelled);
}

TEST(AnytimePipeline, NDetectMaxPatternsCap) {
  const Workload w = synth_workload(150, 0, 23);
  NDetectOptions opts;
  // A tiny random phase leaves most faults short of n detections, so the
  // top-up loop runs and trips the pattern cap on its first fault.
  opts.n = 32;
  opts.random.max_batches = 2;
  opts.budget.max_patterns = 1;
  const NDetectResult res = generate_ndetect(w.nl, w.faults, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.stop_reason, StopReason::kMaxPatterns);
}

TEST(AnytimePipeline, PreCancelledDiagSet) {
  const Workload w = synth_workload(100, 0, 29);
  DiagSetOptions opts;
  opts.budget = cancelled_budget();
  const DiagSetResult res = generate_diagnostic(w.nl, w.faults, opts);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.stop_reason, StopReason::kCancelled);
}

TEST(AnytimePipeline, PodemCancelledReturnsAborted) {
  const Workload w = synth_workload(150, 0, 31);
  PodemOptions opts;
  opts.budget = cancelled_budget();
  Podem podem(w.nl, opts);
  Rng rng(1);
  BitVec test;
  ASSERT_FALSE(w.faults.empty());
  EXPECT_EQ(podem.generate(w.faults[0], &test, rng), PodemStatus::kAborted);
}

TEST(AnytimePipeline, PreCancelledProcedure2KeepsInitialAssignment) {
  const Workload w = synth_workload(120, 60, 37);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 2});
  const std::vector<ResponseId> initial(rm.num_tests(), 0);

  // Four threads score blocks of tests ahead; a cancelled budget must
  // still commit none of them.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Procedure2Config cfg;
    cfg.num_threads = threads;
    cfg.budget = cancelled_budget();
    const Procedure2Result res = run_procedure2(rm, initial, cfg);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(res.baselines, initial);
    EXPECT_EQ(res.replacements, 0u);
    EXPECT_EQ(res.indistinguished_pairs, count_indistinguished(rm, initial));

    // construct() passes each procedure its own budget: Procedure 1 falls
    // back to the pass/fail floor and Procedure 2 keeps that assignment.
    const Construction c = construct(
        rm, {.num_threads = threads, .budget = cancelled_budget()}, cfg);
    EXPECT_EQ(c.proc1.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(c.proc2.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(c.proc2.baselines, c.proc1.baselines);
    EXPECT_EQ(c.proc2.replacements, 0u);
  }
}

// ------------------------------------------------------ fault injection --

TEST(FaultInjection, SimulateChunkFaultSurfacesAtEveryThreadCount) {
  const Workload w = synth_workload(120, 40, 41);
  const ResponseMatrix reference =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 1});
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ScopedFailPoint fp("simulate_chunk");
    EXPECT_THROW(build_response_matrix(w.nl, w.faults, w.tests,
                                       {.num_threads = threads}),
                 failpoint::InjectedFault)
        << threads << " threads";
  }
  // The system recovers completely once the fault stops firing.
  const ResponseMatrix again =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4});
  for (FaultId f = 0; f < reference.num_faults(); ++f)
    for (std::size_t t = 0; t < reference.num_tests(); ++t)
      ASSERT_EQ(again.response(f, t), reference.response(f, t));
}

TEST(FaultInjection, MergeBadAllocPropagatesAsBadAlloc) {
  const Workload w = synth_workload(120, 40, 43);
  {
    ScopedFailPoint fp("response_merge", 1, failpoint::Kind::kBadAlloc);
    EXPECT_THROW(
        build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4}),
        std::bad_alloc);
  }
  EXPECT_NO_THROW(
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 4}));
}

TEST(FaultInjection, Procedure1RestartFaultCrossesThePool) {
  const Workload w = synth_workload(140, 60, 47);
  const ResponseMatrix rm =
      build_response_matrix(w.nl, w.faults, w.tests, {.num_threads = 2});
  BaselineSelectionConfig cfg;
  cfg.calls1 = 8;
  cfg.seed = 9;
  cfg.num_threads = 4;
  const BaselineSelection reference = run_procedure1(rm, cfg);
  {
    // Third restart throws, from whichever worker gets there.
    ScopedFailPoint fp("proc1_restart", 3);
    EXPECT_THROW(run_procedure1(rm, cfg), failpoint::InjectedFault);
  }
  expect_same_selection(reference, run_procedure1(rm, cfg),
                        "after injected fault");
}

// ------------------------------------------------------- CLI strictness --

CliArgs make_args(std::vector<std::string> argv) {
  std::vector<char*> ptrs;
  ptrs.reserve(argv.size());
  for (auto& s : argv) ptrs.push_back(s.data());
  return CliArgs(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(CliStrict, MalformedNumericsThrow) {
  const CliArgs args = make_args(
      {"prog", "--a=abc", "--b=12abc", "--c=", "--d", "--e=1,abc", "--f=1.5x"});
  EXPECT_THROW(args.get_int("a", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("b", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("c", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("d", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int_list("e"), std::invalid_argument);
  EXPECT_THROW(args.get_double("f", 0), std::invalid_argument);
}

TEST(CliStrict, OutOfRangeThrowsInRangePasses) {
  const CliArgs args = make_args({"prog", "--n=5"});
  EXPECT_THROW(args.get_int("n", 0, 0, 4), std::invalid_argument);
  EXPECT_THROW(args.get_int("n", 0, 6, 10), std::invalid_argument);
  EXPECT_EQ(args.get_int("n", 0, 1, 10), 5);
  EXPECT_EQ(args.get_int("absent", 42, 0, 100), 42);
}

TEST(CliStrict, UnknownFlagsReported) {
  const CliArgs args = make_args({"prog", "--seed=1", "--sede=2"});
  const auto unknown = args.unknown_flags({"seed", "threads"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "sede");
}

// ------------------------------------------- tester-datalog reader --

TesterLog parse_log(const std::string& text, bool recover) {
  std::istringstream in(text);
  TesterLogOptions topt;
  topt.recover = recover;
  return read_testerlog(in, topt);
}

TEST(TesterLog, RoundTripPreservesEveryQualifier) {
  const std::vector<Observed> obs = {
      Observed::of(0),  Observed::of(3),
      Observed::missing(), Observed::unstable(),
      Observed::of(kUnknownResponse), Observed::of(7)};
  std::ostringstream out;
  write_testerlog(out, obs);
  const TesterLog log = parse_log(out.str(), /*recover=*/false);
  EXPECT_EQ(log.observations, obs);
  EXPECT_TRUE(log.dropped.empty());
  EXPECT_FALSE(log.truncated);
}

TEST(TesterLog, UnmentionedTestsDefaultToMissingAndCrlfTolerated) {
  const TesterLog log = parse_log(
      "sddict testerlog v1\r\ntests 4\r\n# comment\r\n\r\nt 1 5\r\nend\r\n",
      /*recover=*/false);
  ASSERT_EQ(log.observations.size(), 4u);
  EXPECT_EQ(log.observations[0], Observed::missing());
  EXPECT_EQ(log.observations[1], Observed::of(5));
  EXPECT_EQ(log.observations[2], Observed::missing());
  EXPECT_EQ(log.observations[3], Observed::missing());
}

TEST(TesterLog, StrictModeReportsLineAndColumn) {
  try {
    parse_log("sddict testerlog v1\ntests 3\nt 0 bogus\nend\n", false);
    FAIL() << "bad response value was accepted";
  } catch (const TesterLogError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 5u);
    EXPECT_NE(std::string(e.what()).find("testerlog:3:5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad response value"),
              std::string::npos);
  }
  try {
    parse_log("sddict testerlog v1\ntests 3\nt 9 1\nend\n", false);
    FAIL() << "out-of-range index was accepted";
  } catch (const TesterLogError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 3u);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  try {
    parse_log("sddict testerlog v1\ntests 2\nt 0 1\n", false);
    FAIL() << "missing 'end' was accepted in strict mode";
  } catch (const TesterLogError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("missing 'end'"), std::string::npos);
  }
}

TEST(TesterLog, StructuralDefectsThrowInBothModes) {
  for (const bool recover : {false, true}) {
    EXPECT_THROW(parse_log("bogus header\n", recover), TesterLogError);
    EXPECT_THROW(parse_log("", recover), TesterLogError);
    EXPECT_THROW(parse_log("sddict testerlog v1\nnot-tests 3\n", recover),
                 TesterLogError);
    EXPECT_THROW(parse_log("sddict testerlog v1\ntests huge\n", recover),
                 TesterLogError);
    EXPECT_THROW(
        parse_log("sddict testerlog v1\ntests 999999999999\n", recover),
        TesterLogError);
  }
}

TEST(TesterLog, RecoveryModeDropsDeterministically) {
  const TesterLog log = parse_log(
      "sddict testerlog v1\n"
      "tests 4\n"
      "t 0 2\n"
      "t 0 3\n"      // duplicate: first record stands
      "t 9 1\n"      // index out of range
      "t 1 bogus\n"  // bad value
      "x 2 1\n"      // unknown record type
      "t 2\n"        // wrong arity
      "t 3 unstable\n"
      "end\n",
      /*recover=*/true);
  ASSERT_EQ(log.observations.size(), 4u);
  EXPECT_EQ(log.observations[0], Observed::of(2));
  EXPECT_EQ(log.observations[1], Observed::missing());
  EXPECT_EQ(log.observations[2], Observed::missing());
  EXPECT_EQ(log.observations[3], Observed::unstable());
  EXPECT_FALSE(log.truncated);
  ASSERT_EQ(log.dropped.size(), 5u);
  const struct {
    std::size_t line;
    const char* reason;
  } expected[5] = {{4, "duplicate record"},
                   {5, "out of range"},
                   {6, "bad response value"},
                   {7, "unknown record type"},
                   {8, "expected 't <index> <value>'"}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(log.dropped[i].line, expected[i].line) << i;
    EXPECT_NE(log.dropped[i].reason.find(expected[i].reason),
              std::string::npos)
        << log.dropped[i].reason;
  }
}

TEST(TesterLog, RecoveryModeMalformedTrailerIsNotTheTrailer) {
  // A corrupted 'end' line must not swallow the records after it: it is
  // dropped like any other malformed record and scanning continues.
  const TesterLog log = parse_log(
      "sddict testerlog v1\n"
      "tests 3\n"
      "t 0 2\n"
      "end extra\n"
      "t 1 5\n"
      "end\n",
      /*recover=*/true);
  EXPECT_FALSE(log.truncated);
  ASSERT_EQ(log.observations.size(), 3u);
  EXPECT_EQ(log.observations[0], Observed::of(2));
  EXPECT_EQ(log.observations[1], Observed::of(5));
  ASSERT_EQ(log.dropped.size(), 1u);
  EXPECT_EQ(log.dropped[0].line, 4u);
  EXPECT_NE(log.dropped[0].reason.find("trailing tokens after 'end'"),
            std::string::npos);

  // Without a later well-formed 'end' the salvage is honest about it.
  const TesterLog cut = parse_log(
      "sddict testerlog v1\ntests 2\nt 0 1\nend extra\n", /*recover=*/true);
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.dropped.size(), 1u);
  EXPECT_EQ(cut.observations[0], Observed::of(1));
}

TEST(TesterLog, RecoveryModeMarksMissingEndAsTruncated) {
  const TesterLog log =
      parse_log("sddict testerlog v1\ntests 2\nt 1 6\n", /*recover=*/true);
  EXPECT_TRUE(log.truncated);
  ASSERT_EQ(log.observations.size(), 2u);
  EXPECT_EQ(log.observations[1], Observed::of(6));
}

// Deterministic mutation fuzzer: every truncation and every single-byte
// flip of a valid log must either parse or raise a typed TesterLogError —
// in both modes — and recovery-mode salvage stays within the declared
// vector size.
TEST(TesterLog, MutationFuzzNeverCrashesOrOverflows) {
  const std::vector<Observed> obs = {
      Observed::of(4), Observed::missing(), Observed::unstable(),
      Observed::of(kUnknownResponse), Observed::of(0)};
  std::ostringstream out;
  write_testerlog(out, obs);
  const std::string good = out.str();
  const auto attempt = [](const std::string& text, bool recover) {
    try {
      const TesterLog log = parse_log(text, recover);
      for (const DroppedRecord& d : log.dropped) EXPECT_GT(d.line, 0u);
    } catch (const TesterLogError&) {
      // typed rejection is the other acceptable outcome
    }
  };
  for (std::size_t n = 0; n <= good.size(); ++n) {
    attempt(good.substr(0, n), false);
    attempt(good.substr(0, n), true);
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    attempt(flip_byte(good, i), false);
    attempt(flip_byte(good, i), true);
  }
}

// ------------------------------------------- noise-tolerant engine --

struct EngineEnv {
  Workload w;
  ResponseMatrix rm;
  FullDictionary full;
  PassFailDictionary pf;
  SameDifferentDictionary sd;
  MultiBaselineDictionary mb;
  FirstFailDictionary ff;
};

const EngineEnv& engine_env() {
  static const EngineEnv* env = [] {
    Workload w = synth_workload(150, 40, 7);
    ResponseMatrixOptions rmopts;
    rmopts.store_diff_outputs = true;  // first-fail translation needs them
    ResponseMatrix rm = build_response_matrix(w.nl, w.faults, w.tests, rmopts);
    const auto full = FullDictionary::build(rm);
    BaselineSelectionConfig cfg;
    cfg.calls1 = 4;
    cfg.seed = 7;
    cfg.target_indistinguished = full.indistinguished_pairs();
    const auto p1 = run_procedure1(rm, cfg);
    Procedure2Config p2cfg;
    p2cfg.target_indistinguished = full.indistinguished_pairs();
    const auto p2 = run_procedure2(rm, p1.baselines, p2cfg);
    auto sd = SameDifferentDictionary::build(rm, p2.baselines);
    auto mb = MultiBaselineDictionary::build(
        rm, run_multi_baseline(rm, 2, cfg).baselines);
    auto pf = PassFailDictionary::build(rm);
    auto ff = FirstFailDictionary::build(rm);
    return new EngineEnv{std::move(w),  std::move(rm), full,
                         std::move(pf), std::move(sd), std::move(mb),
                         std::move(ff)};
  }();
  return *env;
}

std::vector<ResponseId> defect_ids(const EngineEnv& e, FaultId truth) {
  return observe_defect(e.w.nl, e.w.tests, e.rm,
                        {to_injection(e.w.faults[truth])});
}

// fault id -> mismatch count, from a full-length candidate list.
std::vector<std::uint32_t> mismatch_map(
    const std::vector<DiagnosisMatch>& matches, std::size_t num_faults) {
  std::vector<std::uint32_t> m(num_faults, 0);
  EXPECT_EQ(matches.size(), num_faults);
  for (const DiagnosisMatch& dm : matches) m[dm.fault] = dm.mismatches;
  return m;
}

void expect_same_ranking(const std::vector<DiagnosisMatch>& engine,
                         const std::vector<DiagnosisMatch>& dict,
                         const char* what) {
  ASSERT_EQ(engine.size(), dict.size()) << what;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(engine[i].fault, dict[i].fault) << what << " rank " << i;
    EXPECT_EQ(engine[i].mismatches, dict[i].mismatches) << what << " rank "
                                                        << i;
  }
}

// Acceptance gate of the engine refactor: with a clean observation, zero
// tolerance and no budget, the engine-routed diagnosis is bit-identical to
// each dictionary's own diagnose() — same ranking, same mismatch counts.
TEST(DiagnosisEngine, CleanObservationMatchesDictionaryDiagnose) {
  const EngineEnv& e = engine_env();
  const std::size_t n = e.rm.num_faults();
  EngineOptions opt;
  opt.max_results = n;
  Rng rng(11);
  for (int d = 0; d < 4; ++d) {
    const auto truth = static_cast<FaultId>(rng.below(n));
    const std::vector<ResponseId> ids = defect_ids(e, truth);
    const std::vector<Observed> obs = qualify(ids);

    const EngineDiagnosis df = diagnose_observed(e.full, obs, opt);
    EXPECT_EQ(df.outcome, DiagnosisOutcome::kExactMatch);
    EXPECT_EQ(df.best_mismatches, 0u);
    EXPECT_EQ(df.effective_tests, e.rm.num_tests());
    EXPECT_EQ(df.dont_care_tests, 0u);
    EXPECT_EQ(df.unknown_tests, 0u);
    expect_same_ranking(df.matches, e.full.diagnose(ids, n), "full");
    expect_same_ranking(diagnose_observed(e.pf, obs, opt).matches,
                        e.pf.diagnose(e.pf.encode(ids), n), "pass/fail");
    expect_same_ranking(diagnose_observed(e.sd, obs, opt).matches,
                        e.sd.diagnose(e.sd.encode(ids), n), "same/diff");
    expect_same_ranking(diagnose_observed(e.mb, obs, opt).matches,
                        e.mb.diagnose(e.mb.encode(ids), n), "multi-baseline");
    expect_same_ranking(diagnose_observed(e.ff, e.rm, obs, opt).matches,
                        e.ff.diagnose(e.ff.encode(e.rm, ids), n),
                        "first-fail");
  }
}

// Flipping one observed test across the pass/fail boundary moves every
// candidate's mismatch count by exactly one — the dictionary bit either
// agreed before and disagrees now, or vice versa.
TEST(DiagnosisEngine, SingleFlipShiftsEveryPassFailCandidateByOne) {
  const EngineEnv& e = engine_env();
  const std::size_t n = e.rm.num_faults();
  EngineOptions opt;
  opt.max_results = n;
  // Large tolerance keeps the flipped observation in the native stage, so
  // the compared mismatch counts live in the dictionary's own space.
  opt.tolerance = static_cast<std::uint32_t>(e.rm.num_tests());
  const std::vector<ResponseId> ids = defect_ids(e, 0);
  const auto base =
      mismatch_map(diagnose_observed(e.pf, qualify(ids), opt).matches, n);
  for (const std::size_t t : {std::size_t{0}, e.rm.num_tests() - 1}) {
    std::vector<Observed> obs = qualify(ids);
    // Cross the boundary: pass becomes some failing id, fail becomes pass.
    obs[t] = Observed::of(ids[t] == 0 ? 1 : 0);
    const auto flipped =
        mismatch_map(diagnose_observed(e.pf, obs, opt).matches, n);
    for (std::size_t f = 0; f < n; ++f) {
      const std::uint32_t delta =
          flipped[f] > base[f] ? flipped[f] - base[f] : base[f] - flipped[f];
      EXPECT_EQ(delta, 1u) << "fault " << f << " test " << t;
    }
  }
}

TEST(DiagnosisEngine, SingleFlipShiftsEverySameDiffCandidateByOne) {
  const EngineEnv& e = engine_env();
  const std::size_t n = e.rm.num_faults();
  EngineOptions opt;
  opt.max_results = n;
  opt.tolerance = static_cast<std::uint32_t>(e.rm.num_tests());
  const std::vector<ResponseId> ids = defect_ids(e, 1);
  const auto base =
      mismatch_map(diagnose_observed(e.sd, qualify(ids), opt).matches, n);
  const auto& bl = e.sd.baselines();
  for (const std::size_t t : {std::size_t{0}, e.rm.num_tests() / 2}) {
    std::vector<Observed> obs = qualify(ids);
    // Cross the same/different boundary for test t's baseline.
    obs[t] = Observed::of(ids[t] == bl[t] ? (bl[t] == 0 ? 1 : 0) : bl[t]);
    const auto flipped =
        mismatch_map(diagnose_observed(e.sd, obs, opt).matches, n);
    for (std::size_t f = 0; f < n; ++f) {
      const std::uint32_t delta =
          flipped[f] > base[f] ? flipped[f] - base[f] : base[f] - flipped[f];
      EXPECT_EQ(delta, 1u) << "fault " << f << " test " << t;
    }
  }
}

// Missing and unstable records are don't-cares: excluded from mismatch
// counting, counted in the result's qualifier tallies, and the true fault
// still exact-matches on the remaining tests.
TEST(DiagnosisEngine, MissingAndUnstableTestsAreExcluded) {
  const EngineEnv& e = engine_env();
  const std::size_t n = e.rm.num_faults();
  EngineOptions opt;
  opt.max_results = n;
  const FaultId truth = 2;
  const std::vector<ResponseId> ids = defect_ids(e, truth);
  std::vector<Observed> obs = qualify(ids);
  obs[0] = Observed::missing();
  obs[1] = Observed::unstable();
  const EngineDiagnosis d = diagnose_observed(e.full, obs, opt);
  EXPECT_EQ(d.outcome, DiagnosisOutcome::kExactMatch);
  EXPECT_EQ(d.best_mismatches, 0u);
  EXPECT_EQ(d.dont_care_tests, 2u);
  EXPECT_EQ(d.unknown_tests, 0u);
  EXPECT_EQ(d.effective_tests, e.rm.num_tests() - 2);
  EXPECT_GE(true_fault_rank(d.matches, truth), 1u);
  // Mismatch counts equal a by-hand count over the cared tests only.
  for (const DiagnosisMatch& m : d.matches) {
    std::uint32_t want = 0;
    for (std::size_t t = 2; t < e.rm.num_tests(); ++t)
      if (e.full.entry(m.fault, t) != ids[t]) ++want;
    EXPECT_EQ(m.mismatches, want) << "fault " << m.fault;
  }
}

// An observation containing a response no modeled fault produces can never
// yield a confident exact/tolerant verdict; it degrades to the pass/fail
// projection, where the unknown still counts as "the test failed".
TEST(DiagnosisEngine, UnknownResponseForbidsConfidentVerdict) {
  const EngineEnv& e = engine_env();
  EngineOptions opt;
  opt.max_results = e.rm.num_faults();
  const FaultId truth = 3;
  const std::vector<ResponseId> ids = defect_ids(e, truth);
  std::vector<Observed> obs = qualify(ids);
  // Replace one *failing* observation with an unmodeled response, so the
  // pass/fail projection of the truth is unchanged.
  std::size_t t0 = e.rm.num_tests();
  for (std::size_t t = 0; t < ids.size(); ++t)
    if (ids[t] != 0) {
      t0 = t;
      break;
    }
  ASSERT_LT(t0, e.rm.num_tests()) << "defect not excited by the test set";
  obs[t0] = Observed::of(kUnknownResponse);
  const EngineDiagnosis d = diagnose_observed(e.full, obs, opt);
  EXPECT_EQ(d.unknown_tests, 1u);
  EXPECT_NE(d.outcome, DiagnosisOutcome::kExactMatch);
  EXPECT_NE(d.outcome, DiagnosisOutcome::kTolerantMatch);
  EXPECT_EQ(d.outcome, DiagnosisOutcome::kPassFailProjection);
  EXPECT_EQ(d.best_mismatches, 0u);
  EXPECT_GE(true_fault_rank(d.matches, truth), 1u);
}

// The tolerance-e guarantee: every fault within Hamming distance e of the
// observed signature gets a candidate slot, even past max_results.
TEST(DiagnosisEngine, ToleranceGuaranteeOverridesMaxResults) {
  const EngineEnv& e = engine_env();
  const std::size_t n = e.rm.num_faults();
  EngineOptions opt;
  opt.max_results = 1;
  opt.tolerance = 2;
  const std::vector<ResponseId> ids = defect_ids(e, 4);
  const EngineDiagnosis d = diagnose_observed(e.pf, qualify(ids), opt);
  const std::string enc = e.pf.encode(ids).to_string();
  std::size_t within = 0;
  for (FaultId f = 0; f < n; ++f) {
    std::uint32_t dist = 0;
    for (std::size_t t = 0; t < e.rm.num_tests(); ++t)
      if (e.pf.bit(f, t) != (enc[t] == '1')) ++dist;
    if (dist > opt.tolerance) continue;
    ++within;
    EXPECT_GE(true_fault_rank(d.matches, f), 1u)
        << "fault " << f << " at distance " << dist << " missing";
  }
  EXPECT_GE(within, 1u);  // the true fault itself is at distance 0
  EXPECT_GE(d.matches.size(), within);
}

TEST(DiagnosisEngine, CancelledBudgetReturnsIncompleteWithoutThrowing) {
  const EngineEnv& e = engine_env();
  EngineOptions opt;
  opt.budget = cancelled_budget();
  const EngineDiagnosis d =
      diagnose_observed(e.pf, qualify(defect_ids(e, 0)), opt);
  EXPECT_FALSE(d.completed);
  EXPECT_EQ(d.stop_reason, StopReason::kCancelled);
}

TEST(DiagnosisEngine, WrongLengthObservationNamesBothSizes) {
  const EngineEnv& e = engine_env();
  const std::vector<Observed> obs(e.rm.num_tests() + 3, Observed::of(0));
  try {
    diagnose_observed(e.pf, obs);
    FAIL() << "wrong-length observation was accepted";
  } catch (const std::invalid_argument& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("expected"), std::string::npos);
    EXPECT_NE(what.find(std::to_string(e.rm.num_tests())), std::string::npos);
    EXPECT_NE(what.find(std::to_string(e.rm.num_tests() + 3)),
              std::string::npos);
  }
}

// A defect outside the single-stuck-at model (a wired bridge) must degrade
// to a weaker typed verdict instead of a confident wrong answer, and at
// least one bridge reaches the unmodeled-defect fallback with a cover.
TEST(DiagnosisEngine, BridgeDefectFallsBackInsteadOfExactMatching) {
  const EngineEnv& e = engine_env();
  EngineOptions opt;
  opt.max_results = 10;
  Rng rng(23);
  const auto bridges = sample_bridges(e.w.nl, 24, rng);
  std::size_t active = 0, unmodeled = 0;
  for (const BridgingFault& br : bridges) {
    const Netlist bad = inject_bridge(e.w.nl, br);
    const auto ids = observe_defective_netlist(e.w.nl, bad, e.w.tests, e.rm);
    bool fails = false;
    for (const ResponseId id : ids) fails |= id != 0;
    if (!fails) continue;  // bridge not excited by this test set
    ++active;
    const EngineDiagnosis d = diagnose_observed(e.full, qualify(ids), opt);
    if (d.unknown_tests > 0) {
      EXPECT_NE(d.outcome, DiagnosisOutcome::kExactMatch);
      EXPECT_NE(d.outcome, DiagnosisOutcome::kTolerantMatch);
    }
    if (d.outcome == DiagnosisOutcome::kUnmodeledDefect) {
      ++unmodeled;
      EXPECT_TRUE(!d.cover.empty() || d.uncovered_failures > 0);
    }
  }
  EXPECT_GE(active, 1u);
  EXPECT_GE(unmodeled, 1u);
}

// The headline robustness claim, pinned at a fixed seed: under 2% datalog
// noise the same/different dictionary ranks the true fault strictly better
// (lower mean rank) than pass/fail. Mirrors bench_noise's self-check.
TEST(DiagnosisEngine, SameDifferentOutranksPassFailUnderNoise) {
  Netlist nl = load_benchmark("s298");
  if (nl.has_dffs()) nl = full_scan(nl);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  const TestSet tests = generate_detect(nl, faults, 1).tests;
  ResponseMatrixOptions rmopts;
  rmopts.store_diff_outputs = true;
  const ResponseMatrix rm = build_response_matrix(nl, faults, tests, rmopts);
  const auto full = FullDictionary::build(rm);
  const auto pf = PassFailDictionary::build(rm);
  BaselineSelectionConfig cfg;
  cfg.calls1 = 10;
  cfg.seed = 1;
  cfg.target_indistinguished = full.indistinguished_pairs();
  const auto p1 = run_procedure1(rm, cfg);
  Procedure2Config p2cfg;
  p2cfg.target_indistinguished = full.indistinguished_pairs();
  const auto p2 = run_procedure2(rm, p1.baselines, p2cfg);
  const auto sd = SameDifferentDictionary::build(rm, p2.baselines);

  EngineOptions opt;
  opt.tolerance = 2;
  opt.max_results = faults.size();
  std::uint64_t sum_pf = 0, sum_sd = 0;
  Rng defect_rng(100);
  for (int d = 0; d < 200; ++d) {
    const auto truth = static_cast<FaultId>(defect_rng.below(faults.size()));
    const auto ids =
        observe_defect(nl, tests, rm, {to_injection(faults[truth])});
    testing::NoiseChannel noise;  // the 2% channel bench_noise uses
    noise.drop_rate = 0.02;
    noise.flip_rate = 0.005;
    noise.seed = 1000003 + static_cast<std::uint64_t>(d) * 31;
    const auto obs = testing::apply_noise(ids, rm, noise);
    const std::size_t rp =
        true_fault_rank(diagnose_observed(pf, obs, opt).matches, truth);
    const std::size_t rs =
        true_fault_rank(diagnose_observed(sd, obs, opt).matches, truth);
    sum_pf += rp ? rp : faults.size();
    sum_sd += rs ? rs : faults.size();
  }
  EXPECT_LT(sum_sd, sum_pf);
}

}  // namespace
}  // namespace sddict
