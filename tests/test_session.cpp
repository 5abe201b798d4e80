// Session suite (ISSUE 9): multi-observation, multi-fault diagnosis.
//
//  * evidence aggregation — single-run identity, majority vote, tie ->
//    unstable, length-mismatch rejection;
//  * the identity gate — a clean single-run session's single-fault part is
//    bit-identical to diagnose_observed() on its store and on the
//    dictionary the store was built from;
//  * the minimality proof — branch-and-bound covers checked against a
//    brute-force enumeration oracle on hand-built dictionaries (tie
//    cardinalities enumerated exhaustively) and on a synthesized
//    two-fault composite over a real store;
//  * anytime semantics — a cancelled budget still returns the greedy
//    incumbent with completed == false, and a max_cover too small for any
//    full cover degrades to the greedy prefix with cover_minimal == false;
//  * the stage-4 greedy rewrite differential — the incremental-gain cover
//    must equal the O(faults x failing) recounting reference on random
//    dictionaries;
//  * sessionlog parsing — strict mode names the offending run, recovery
//    salvages run by run, write/read round-trips;
//  * SessionStore admission bounds and SessionService protocol replies;
//  * session verbs over a real NetServer TCP session, byte-identical to
//    the direct SessionService::handle() text.
//
// Registered under the "serving" ctest label; the tsan preset includes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "diag/testerlog.h"
#include "dict/full_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "net/backends.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/diagnosis_service.h"
#include "session/engine.h"
#include "session/evidence.h"
#include "session/service.h"
#include "session/store.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/bitvec.h"
#include "util/rng.h"

namespace sddict {
namespace {

// ------------------------------------------------------------- fixtures --

ResponseMatrix session_matrix() {
  SynthProfile profile;
  profile.name = "sess";
  profile.inputs = 8;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 60;
  profile.seed = 0x5e55;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(11);
  tests.add_random(48, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = session_matrix();
  return m;
}

const FullDictionary& full_dict() {
  static const FullDictionary d = FullDictionary::build(rm());
  return d;
}

const SameDifferentDictionary& sd() {
  static const SameDifferentDictionary d = [] {
    std::vector<ResponseId> bl(rm().num_tests(), 0);
    for (std::size_t t = 0; t < rm().num_tests(); ++t)
      if (rm().num_distinct(t) > 1 && t % 2 == 0) bl[t] = 1;
    return SameDifferentDictionary::build(rm(), bl);
  }();
  return d;
}

// Full-kind store: detects(f, t) is exactly entry(f, t) != 0, so any
// two-fault composite is covered by its own pair — every oracle trial is
// decidable at cardinality <= 2.
std::shared_ptr<const SignatureStore> shared_store() {
  static const std::shared_ptr<const SignatureStore> s =
      std::make_shared<const SignatureStore>(SignatureStore::build(full_dict()));
  return s;
}

template <typename Dict>
std::shared_ptr<const SignatureStore> store_of(const Dict& d) {
  return std::make_shared<const SignatureStore>(SignatureStore::build(d));
}

std::vector<ResponseId> fault_response(FaultId f) {
  std::vector<ResponseId> obs(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    obs[t] = full_dict().entry(f, t);
  return obs;
}

// A two-fault composite at the full-response level: wherever fault `a`
// deviates from fault-free its response wins, elsewhere fault `b` speaks.
// Response id 0 is the fault-free id throughout the suite.
std::vector<Observed> composite_observation(FaultId a, FaultId b) {
  std::vector<Observed> obs(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t) {
    const ResponseId ra = full_dict().entry(a, t);
    obs[t] = Observed::of(ra != 0 ? ra : full_dict().entry(b, t));
  }
  return obs;
}

SessionRun run_of(std::vector<Observed> obs) {
  SessionRun r;
  r.observed = std::move(obs);
  return r;
}

// -------------------------------------------------- brute-force oracle --

struct OracleResult {
  std::size_t min_cover = 0;  // 0 = no cover within max_k
  std::set<std::vector<FaultId>> covers;
};

// Enumerates ALL minimal-cardinality covers of `target` (bitmask over at
// most 64 failing-test positions) by exhaustive combination search.
OracleResult brute_force_covers(const std::vector<std::uint64_t>& mask,
                                std::uint64_t target, std::size_t max_k) {
  OracleResult r;
  if (target == 0) return r;
  std::vector<FaultId> useful;
  for (FaultId f = 0; f < mask.size(); ++f)
    if ((mask[f] & target) != 0) useful.push_back(f);
  std::vector<FaultId> pick;
  std::function<void(std::size_t, std::uint64_t, std::size_t)> choose =
      [&](std::size_t start, std::uint64_t covered, std::size_t left) {
        if (left == 0) {
          if ((covered & target) == target) r.covers.insert(pick);
          return;
        }
        for (std::size_t i = start; i + left <= useful.size() + 1 &&
                                    i < useful.size();
             ++i) {
          pick.push_back(useful[i]);
          choose(i + 1, covered | mask[useful[i]], left - 1);
          pick.pop_back();
        }
      };
  for (std::size_t k = 1; k <= max_k; ++k) {
    choose(0, 0, k);
    if (!r.covers.empty()) {
      r.min_cover = k;
      return r;
    }
  }
  return r;
}

std::set<std::vector<FaultId>> group_sets(const SessionDiagnosis& d) {
  std::set<std::vector<FaultId>> out;
  for (const AmbiguityGroup& g : d.groups) out.insert(g.faults);
  return out;
}

// Consensus failing tests of `obs` split by the engine's detection bits:
// `target` gets one mask bit per coverable failure, undetectable failures
// are counted instead.
void failure_masks(const SessionEngine& eng, const std::vector<Observed>& obs,
                   std::vector<std::uint64_t>* mask, std::uint64_t* target,
                   std::size_t* unexplained) {
  std::vector<std::size_t> failing;
  for (std::size_t t = 0; t < obs.size(); ++t)
    if (!obs[t].dont_care() && obs[t].value != 0) failing.push_back(t);
  mask->assign(eng.num_faults(), 0);
  *target = 0;
  *unexplained = 0;
  std::size_t pos = 0;
  for (const std::size_t t : failing) {
    bool any = false;
    for (FaultId f = 0; f < eng.num_faults(); ++f)
      if (eng.detects(f, t)) {
        (*mask)[f] |= std::uint64_t{1} << pos;
        any = true;
      }
    if (any) {
      *target |= std::uint64_t{1} << pos;
      ++pos;
    } else {
      ++*unexplained;
    }
  }
  ASSERT_LE(pos, 64u) << "oracle mask overflow";
}

// A tiny pass/fail dictionary from explicit detection sets (one entry per
// fault: the tests it fails).
PassFailDictionary pf_from_sets(
    const std::vector<std::vector<std::size_t>>& sets, std::size_t num_tests) {
  std::vector<BitVec> rows;
  for (const auto& s : sets) {
    BitVec row(num_tests);
    for (const std::size_t t : s) row.set(t, true);
    rows.push_back(std::move(row));
  }
  return PassFailDictionary::from_rows(std::move(rows), num_tests, 1);
}

// --------------------------------------------------- evidence aggregation --

TEST(SessionEvidence, SingleRunAggregatesToItself) {
  Rng rng(0x11);
  std::vector<Observed> obs(rm().num_tests());
  for (std::size_t t = 0; t < obs.size(); ++t) {
    const std::uint64_t roll = rng.below(10);
    if (roll == 0)
      obs[t] = Observed::missing();
    else if (roll == 1)
      obs[t] = Observed::unstable();
    else
      obs[t] = Observed::of(static_cast<ResponseId>(rng.below(5)));
  }
  const SessionEvidence ev = aggregate_runs({run_of(obs)});
  ASSERT_EQ(ev.num_runs, 1u);
  ASSERT_EQ(ev.num_tests, obs.size());
  EXPECT_EQ(ev.consensus(), obs);
  EXPECT_EQ(ev.conflicted_tests, 0u);
}

TEST(SessionEvidence, MajorityVoteAndTies) {
  // t0: 2-1 majority. t1: 1-1 tie -> unstable. t2: no concrete reading,
  // one unstable flag -> unstable. t3: silence everywhere -> missing.
  std::vector<SessionRun> runs;
  runs.push_back(run_of({Observed::of(4), Observed::of(2),
                         Observed::unstable(), Observed::missing()}));
  runs.push_back(run_of({Observed::of(4), Observed::of(3),
                         Observed::missing(), Observed::missing()}));
  runs.push_back(run_of({Observed::of(7), Observed::missing(),
                         Observed::missing(), Observed::missing()}));
  const SessionEvidence ev = aggregate_runs(runs);
  ASSERT_EQ(ev.num_tests, 4u);
  EXPECT_EQ(ev.tests[0].consensus, Observed::of(4));
  EXPECT_EQ(ev.tests[0].votes, 3u);
  EXPECT_EQ(ev.tests[0].agree, 2u);
  EXPECT_TRUE(ev.tests[0].conflicted);
  EXPECT_EQ(ev.tests[1].consensus, Observed::unstable());
  EXPECT_TRUE(ev.tests[1].conflicted);
  EXPECT_EQ(ev.tests[2].consensus, Observed::unstable());
  EXPECT_FALSE(ev.tests[2].conflicted);
  EXPECT_EQ(ev.tests[3].consensus, Observed::missing());
  EXPECT_EQ(ev.conflicted_tests, 2u);
  EXPECT_DOUBLE_EQ(ev.weight(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ev.weight(3), 0.0);
}

TEST(SessionEvidence, LengthMismatchThrows) {
  std::vector<SessionRun> runs;
  runs.push_back(run_of({Observed::of(1), Observed::of(2)}));
  runs.push_back(run_of({Observed::of(1)}));
  EXPECT_THROW(aggregate_runs(runs), std::invalid_argument);
}

// ------------------------------------------------------- identity gate --

void expect_same_diagnosis(const EngineDiagnosis& a, const EngineDiagnosis& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.best_mismatches, b.best_mismatches);
  EXPECT_EQ(a.margin, b.margin);
  EXPECT_EQ(a.effective_tests, b.effective_tests);
  EXPECT_EQ(a.dont_care_tests, b.dont_care_tests);
  EXPECT_EQ(a.unknown_tests, b.unknown_tests);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].fault, b.matches[i].fault) << "rank " << i;
    EXPECT_EQ(a.matches[i].mismatches, b.matches[i].mismatches) << "rank " << i;
  }
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.uncovered_failures, b.uncovered_failures);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(SessionEngineGate, SingleRunCleanMatchesDiagnoseObservedStore) {
  const SessionEngine eng(shared_store());
  Rng rng(0x21);
  for (int i = 0; i < 8; ++i) {
    const auto f = static_cast<FaultId>(rng.below(rm().num_faults()));
    const std::vector<Observed> obs = qualify(fault_response(f));
    const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}));
    expect_same_diagnosis(d.single, diagnose_observed(*shared_store(), obs));
  }
}

TEST(SessionEngineGate, SingleRunCleanMatchesDiagnoseObservedDict) {
  const SessionEngine eng(store_of(sd()));
  Rng rng(0x22);
  for (int i = 0; i < 8; ++i) {
    const auto f = static_cast<FaultId>(rng.below(rm().num_faults()));
    const std::vector<Observed> obs = qualify(fault_response(f));
    const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}));
    expect_same_diagnosis(d.single, diagnose_observed(sd(), obs));
  }
}

TEST(SessionEngineGate, RepeatedIdenticalRunsMatchSingleRun) {
  const SessionEngine eng(shared_store());
  const std::vector<Observed> obs = qualify(fault_response(5));
  const SessionDiagnosis one = eng.diagnose(aggregate_runs({run_of(obs)}));
  const SessionDiagnosis three =
      eng.diagnose(aggregate_runs({run_of(obs), run_of(obs), run_of(obs)}));
  expect_same_diagnosis(one.single, three.single);
  EXPECT_EQ(group_sets(one), group_sets(three));
  EXPECT_EQ(one.min_cover, three.min_cover);
}

// ------------------------------------------------------ oracle minimality --

TEST(SessionCovers, BranchAndBoundMatchesOracleOnStore) {
  const SessionEngine eng(shared_store());
  SessionOptions opt;
  opt.max_groups = 256;
  Rng rng(0x31);
  int checked = 0;
  for (int i = 0; i < 24 && checked < 10; ++i) {
    const auto a = static_cast<FaultId>(1 + rng.below(rm().num_faults() - 1));
    const auto b = static_cast<FaultId>(1 + rng.below(rm().num_faults() - 1));
    if (a == b) continue;
    const std::vector<Observed> obs = composite_observation(a, b);
    std::vector<std::uint64_t> mask;
    std::uint64_t target = 0;
    std::size_t unexplained = 0;
    failure_masks(eng, obs, &mask, &target, &unexplained);
    if (target == 0) continue;
    const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}), opt);
    // {a, b} itself covers the target on a full-kind store, so the oracle
    // always decides within cardinality 2; 4 leaves slack for cheaper
    // covers the engine might also have to enumerate exhaustively.
    const OracleResult oracle = brute_force_covers(mask, target, 4);
    EXPECT_EQ(d.unexplained_failures, unexplained);
    if (oracle.min_cover == 0) continue;  // nothing coverable in bounds
    ASSERT_TRUE(d.cover_minimal) << "pair " << a << "," << b;
    EXPECT_TRUE(d.completed);
    EXPECT_EQ(d.min_cover, oracle.min_cover) << "pair " << a << "," << b;
    EXPECT_EQ(d.uncovered_failures, 0u);
    if (!d.groups_truncated) {
      EXPECT_EQ(group_sets(d), oracle.covers) << "pair " << a << "," << b;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5) << "fixture produced too few coverable composites";
}

TEST(SessionCovers, EnumeratesAllTieCardinalityCovers) {
  // 4 failing tests; exactly two distinct minimal 2-covers ({0,1} and
  // {2,3}), plus singles that cannot finish the job.
  const PassFailDictionary dict =
      pf_from_sets({{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0}, {3}}, 4);
  const SessionEngine eng(store_of(dict));
  const std::vector<Observed> obs(4, Observed::of(1));  // everything fails
  const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}));
  ASSERT_TRUE(d.cover_minimal);
  EXPECT_EQ(d.min_cover, 2u);
  EXPECT_FALSE(d.groups_truncated);
  const std::set<std::vector<FaultId>> expected = {{0, 1}, {2, 3}};
  EXPECT_EQ(group_sets(d), expected);
  // Conflict-free full covers of a clean session carry full confidence.
  for (const AmbiguityGroup& g : d.groups) {
    EXPECT_EQ(g.conflicts, 0u);
    EXPECT_DOUBLE_EQ(g.confidence, 1.0);
  }
  // And the oracle agrees wholesale.
  std::vector<std::uint64_t> mask;
  std::uint64_t target = 0;
  std::size_t unexplained = 0;
  failure_masks(eng, obs, &mask, &target, &unexplained);
  const OracleResult oracle = brute_force_covers(mask, target, 8);
  EXPECT_EQ(oracle.min_cover, d.min_cover);
  EXPECT_EQ(oracle.covers, group_sets(d));
}

TEST(SessionCovers, RandomDictionariesMatchOracle) {
  Rng rng(0x41);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t num_tests = 8;
    std::vector<std::vector<std::size_t>> sets(10);
    for (auto& s : sets)
      for (std::size_t t = 0; t < num_tests; ++t)
        if (rng.below(100) < 30) s.push_back(t);
    const PassFailDictionary dict = pf_from_sets(sets, num_tests);
    const SessionEngine eng(store_of(dict));
    std::vector<Observed> obs(num_tests, Observed::of(0));
    for (auto& o : obs)
      if (rng.below(100) < 50) o = Observed::of(1);
    std::vector<std::uint64_t> mask;
    std::uint64_t target = 0;
    std::size_t unexplained = 0;
    failure_masks(eng, obs, &mask, &target, &unexplained);
    SessionOptions opt;
    opt.max_groups = 256;
    const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}), opt);
    EXPECT_EQ(d.unexplained_failures, unexplained) << "trial " << trial;
    const OracleResult oracle = brute_force_covers(mask, target, opt.max_cover);
    if (target == 0) {
      EXPECT_EQ(d.min_cover, 0u) << "trial " << trial;
      continue;
    }
    if (oracle.min_cover == 0) continue;
    ASSERT_TRUE(d.cover_minimal) << "trial " << trial;
    EXPECT_EQ(d.min_cover, oracle.min_cover) << "trial " << trial;
    if (!d.groups_truncated) {
      EXPECT_EQ(group_sets(d), oracle.covers) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------ anytime semantics --

TEST(SessionCovers, CancelledBudgetReturnsGreedyIncumbent) {
  const PassFailDictionary dict =
      pf_from_sets({{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0}, {3}}, 4);
  const SessionEngine eng(store_of(dict));
  const std::vector<Observed> obs(4, Observed::of(1));
  SessionOptions opt;
  opt.budget.cancel.cancel();  // tripped before the search starts
  const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}), opt);
  EXPECT_FALSE(d.completed);
  EXPECT_EQ(d.stop_reason, StopReason::kCancelled);
  EXPECT_FALSE(d.cover_minimal);
  // The greedy incumbent survives: max gain, lowest id on ties -> {0, 1}.
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].faults, (std::vector<FaultId>{0, 1}));
  EXPECT_EQ(d.min_cover, 2u);
  EXPECT_EQ(d.uncovered_failures, 0u);
}

TEST(SessionCovers, MaxCoverTooSmallDegradesToGreedyPrefix) {
  const PassFailDictionary dict =
      pf_from_sets({{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0}, {3}}, 4);
  const SessionEngine eng(store_of(dict));
  const std::vector<Observed> obs(4, Observed::of(1));
  SessionOptions opt;
  opt.max_cover = 1;  // no single fault covers all four failures
  const SessionDiagnosis d = eng.diagnose(aggregate_runs({run_of(obs)}), opt);
  EXPECT_TRUE(d.completed);
  EXPECT_FALSE(d.cover_minimal);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].faults, (std::vector<FaultId>{0}));
  EXPECT_EQ(d.uncovered_failures, 2u);
}

// -------------------------------------- stage-4 greedy cover differential --

// The recounting reference the incremental rewrite replaced: per pick,
// recompute every fault's gain over the still-uncovered failing tests and
// take the strictly-greatest (== lowest id among maxima).
void reference_greedy(const PassFailDictionary& dict,
                      const std::vector<Observed>& obs, std::size_t max_cover,
                      std::vector<FaultId>* cover, std::size_t* uncovered) {
  std::vector<std::size_t> failing;
  for (std::size_t t = 0; t < obs.size(); ++t)
    if (!obs[t].dont_care() && obs[t].value != 0) failing.push_back(t);
  std::vector<bool> covered(failing.size(), false);
  *uncovered = failing.size();
  cover->clear();
  while (*uncovered > 0 && cover->size() < max_cover) {
    FaultId best_f = kNoFault;
    std::size_t best_gain = 0;
    for (FaultId f = 0; f < dict.num_faults(); ++f) {
      std::size_t gain = 0;
      for (std::size_t i = 0; i < failing.size(); ++i)
        if (!covered[i] && dict.bit(f, failing[i])) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best_f = f;
      }
    }
    if (best_gain == 0) break;
    cover->push_back(best_f);
    for (std::size_t i = 0; i < failing.size(); ++i)
      if (!covered[i] && dict.bit(best_f, failing[i])) {
        covered[i] = true;
        --*uncovered;
      }
  }
}

TEST(GreedyCover, IncrementalMatchesRecountingReference) {
  Rng rng(0x51);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_tests = 10;
    std::vector<std::vector<std::size_t>> sets(12);
    for (auto& s : sets)
      for (std::size_t t = 0; t < num_tests; ++t)
        if (rng.below(100) < 25) s.push_back(t);
    const PassFailDictionary dict = pf_from_sets(sets, num_tests);
    std::vector<Observed> obs(num_tests, Observed::of(0));
    for (auto& o : obs)
      if (rng.below(100) < 40) o = Observed::of(1);
    const EngineDiagnosis d = diagnose_observed(dict, obs);
    if (d.outcome != DiagnosisOutcome::kUnmodeledDefect) continue;
    std::vector<FaultId> expected;
    std::size_t expected_uncovered = 0;
    reference_greedy(dict, obs, EngineOptions{}.max_cover, &expected,
                     &expected_uncovered);
    EXPECT_EQ(d.cover, expected) << "trial " << trial;
    EXPECT_EQ(d.uncovered_failures, expected_uncovered) << "trial " << trial;
    ++compared;
  }
  EXPECT_GE(compared, 10) << "too few unmodeled-defect trials";
}

// ------------------------------------------------------------ sessionlog --

TEST(SessionLogIo, RoundTripsRuns) {
  const std::vector<std::vector<Observed>> runs = {
      qualify(fault_response(3)),
      {Observed::of(2), Observed::missing(), Observed::unstable(),
       Observed::of(0)},
  };
  std::ostringstream out;
  write_sessionlog(out, "die-7", {runs[1], runs[1], runs[1]});
  std::istringstream in(out.str());
  const SessionLog log = read_sessionlog(in);
  EXPECT_EQ(log.id, "die-7");
  EXPECT_EQ(log.num_tests, 4u);
  ASSERT_EQ(log.runs.size(), 3u);
  for (const SessionLogRun& r : log.runs) {
    EXPECT_EQ(r.observations, runs[1]);
    EXPECT_TRUE(r.dropped.empty());
    EXPECT_FALSE(r.truncated);
  }
}

TEST(SessionLogIo, StrictModeNamesTheOffendingRun) {
  const std::string text =
      "sddict sessionlog v1\n"
      "session die-1\n"
      "tests 3\n"
      "begin\nt 0 1\nend\n"
      "begin\nt 9 1\nend\n";  // run 2: index out of range
  std::istringstream in(text);
  try {
    read_sessionlog(in);
    FAIL() << "expected TesterLogError";
  } catch (const TesterLogError& e) {
    EXPECT_NE(std::string(e.what()).find("run 2:"), std::string::npos)
        << e.what();
  }
}

TEST(SessionLogIo, RecoverySalvagesRunByRun) {
  const std::string text =
      "sddict sessionlog v1\n"
      "session die-2\n"
      "tests 3\n"
      "t 0 1\n"  // outside any run
      "begin\nt 0 1\nt 1 bogus\nend\n"
      "begin\nt 2 5\n";  // EOF inside the run
  std::istringstream in(text);
  const SessionLog log = read_sessionlog(in, {.recover = true});
  ASSERT_EQ(log.dropped.size(), 1u);
  EXPECT_NE(log.dropped[0].reason.find("expected 'begin'"), std::string::npos);
  ASSERT_EQ(log.runs.size(), 2u);
  ASSERT_EQ(log.runs[0].dropped.size(), 1u);
  EXPECT_NE(log.runs[0].dropped[0].reason.find("run 1:"), std::string::npos);
  EXPECT_EQ(log.runs[0].observations[0], Observed::of(1));
  EXPECT_EQ(log.runs[0].observations[1], Observed::missing());
  EXPECT_FALSE(log.runs[0].truncated);
  EXPECT_TRUE(log.runs[1].truncated);
  EXPECT_EQ(log.runs[1].observations[2], Observed::of(5));
}

TEST(SessionLogIo, SniffsFormats) {
  std::istringstream sess("sddict sessionlog v1\nsession x\ntests 0\n");
  EXPECT_TRUE(sniff_sessionlog(sess));
  std::string first;
  std::getline(sess, first);  // seekg(0) restored the stream
  EXPECT_EQ(first, "sddict sessionlog v1");
  std::istringstream tlog("sddict testerlog v1\ntests 0\nend\n");
  EXPECT_FALSE(sniff_sessionlog(tlog));
}

// ----------------------------------------------------------- SessionStore --

TEST(SessionStoreBounds, AdmissionErrorsAreExplicit) {
  SessionStore store({.max_sessions = 2, .max_runs = 2});
  store.begin("a");
  EXPECT_THROW(store.begin("a"), std::runtime_error);  // already open
  store.begin("b");
  EXPECT_THROW(store.begin("c"), std::runtime_error);  // too many sessions
  EXPECT_THROW(store.append("zz", run_of({Observed::of(1)})),
               std::runtime_error);  // not open
  EXPECT_EQ(store.append("a", run_of({Observed::of(1)})), 1u);
  EXPECT_THROW(store.append("a", run_of({Observed::of(1), Observed::of(2)})),
               std::runtime_error);  // test-count mismatch
  EXPECT_EQ(store.append("a", run_of({Observed::of(2)})), 2u);
  EXPECT_THROW(store.append("a", run_of({Observed::of(3)})),
               std::runtime_error);  // run cap
  EXPECT_EQ(store.end("a"), 2u);
  EXPECT_FALSE(store.open("a"));
  EXPECT_THROW(store.end("a"), std::runtime_error);
  store.begin("c");  // capacity freed
  EXPECT_EQ(store.size(), 2u);
}

// --------------------------------------------------------- SessionService --

SessionService make_service() {
  auto cache = std::make_shared<SessionEngineCache>();
  return SessionService(
      [cache]() { return cache->get(shared_store()); });
}

std::string handle(SessionService& svc, const std::string& frame) {
  std::ostringstream os;
  svc.handle(frame, os);
  return os.str();
}

std::string append_frame(const std::string& id,
                         const std::vector<Observed>& obs) {
  std::ostringstream os;
  os << "session append " << id << "\n";
  write_testerlog(os, obs);
  return os.str();
}

TEST(SessionServiceProtocol, FullVerbCycle) {
  SessionService svc = make_service();
  EXPECT_EQ(handle(svc, "session begin D\nend\n"),
            "session id=D state=open runs=0\ndone\n");
  const std::vector<Observed> obs = qualify(fault_response(4));
  EXPECT_EQ(handle(svc, append_frame("D", obs)),
            "session id=D state=open runs=1\ndone\n");
  EXPECT_EQ(handle(svc, append_frame("D", obs)),
            "session id=D state=open runs=2\ndone\n");
  const std::string reply = handle(svc, "session diagnose D\nend\n");
  EXPECT_EQ(reply.rfind("session id=D runs=2 tests=", 0), 0u) << reply;
  EXPECT_NE(reply.find("\nmultifault "), std::string::npos);
  EXPECT_EQ(reply.substr(reply.size() - 5), "done\n");
  // The single-fault block is write_response's text minus the timing line.
  ServiceResponse direct;
  direct.diagnosis = diagnose_observed(*shared_store(), obs);
  std::ostringstream expect_os;
  net::write_response(expect_os, direct, 0);
  std::istringstream direct_lines(expect_os.str());
  std::istringstream reply_lines(reply);
  std::string dl, rl;
  std::getline(reply_lines, rl);  // skip the session header line
  while (std::getline(direct_lines, dl)) {
    if (dl.rfind("timing ", 0) == 0 || dl == "done") continue;
    ASSERT_TRUE(std::getline(reply_lines, rl));
    EXPECT_EQ(rl, dl);
  }
  EXPECT_EQ(handle(svc, "session end D\nend\n"),
            "session id=D state=closed runs=2\ndone\n");
  EXPECT_EQ(svc.open_sessions(), 0u);
}

TEST(SessionServiceProtocol, ErrorsRenderAsErrorReplies) {
  SessionService svc = make_service();
  EXPECT_EQ(handle(svc, "session diagnose X\nend\n"),
            "error no open session 'X' (use 'session begin')\ndone\n");
  EXPECT_EQ(handle(svc, "session warp X\nend\n"),
            "error unknown session verb 'warp'\ndone\n");
  EXPECT_EQ(handle(svc, "session begin\nend\n"),
            "error usage: session begin|append|diagnose|end <id>\ndone\n");
}

TEST(SessionServiceProtocol, AppendValidatesTestCount) {
  SessionService svc = make_service();
  handle(svc, "session begin D\nend\n");
  const std::string reply =
      handle(svc, append_frame("D", {Observed::of(1), Observed::of(0)}));
  EXPECT_EQ(reply.rfind("error run observes 2 tests, dictionary has", 0), 0u)
      << reply;
  const std::string diag = handle(svc, "session diagnose D\nend\n");
  EXPECT_EQ(diag.rfind("error session 'D' has no runs", 0), 0u) << diag;
}

// --------------------------------------------------- session verbs on TCP --

ServiceOptions session_test_options() {
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 0;
  return o;
}

// A backend without session support: the base handle_session() refuses.
class NoSessionBackend final : public net::NetServer::Backend {
 public:
  NoSessionBackend() : service_(shared_store(), session_test_options()) {}
  DiagnosisService& service() override { return service_; }
  bool handle_admin(const std::vector<std::string>&, std::ostream&) override {
    return false;
  }

 private:
  DiagnosisService service_;
};

class SessionTestServer {
 public:
  explicit SessionTestServer(std::unique_ptr<net::NetServer::Backend> backend =
                                 std::make_unique<net::StoreBackend>(
                                     shared_store(), session_test_options()))
      : backend_(std::move(backend)) {
    net::NetServerOptions nopts;
    nopts.tcp_port = 0;
    server_ = std::make_unique<net::NetServer>(*backend_, nopts);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~SessionTestServer() {
    server_->request_stop();
    thread_.join();
  }

  net::Client connect() {
    return net::Client::connect_tcp("127.0.0.1", server_->tcp_port(), 10);
  }

 private:
  std::unique_ptr<net::NetServer::Backend> backend_;
  std::unique_ptr<net::NetServer> server_;
  std::thread thread_;
};

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

TEST(NetSessionVerbs, TcpRepliesMatchDirectServiceText) {
  SessionTestServer server;
  net::Client client = server.connect();
  // A reference SessionService fed the same frames must produce the same
  // bytes (session replies carry no volatile timing line).
  SessionService reference = make_service();
  const std::vector<Observed> obs = qualify(fault_response(7));
  const std::vector<std::string> frames = {
      "session begin T\nend\n",
      append_frame("T", obs),
      append_frame("T", obs),
      "session diagnose T\nend\n",
      "session end T\nend\n",
      "session diagnose T\nend\n",  // now an error reply
  };
  for (const std::string& frame : frames) {
    const net::Reply reply = client.request(frame);
    EXPECT_FALSE(reply.busy);
    EXPECT_EQ(joined(reply.lines), handle(reference, frame)) << frame;
  }
  // Ordinary datalogs still work on the same connection.
  std::ostringstream datalog;
  write_testerlog(datalog, obs);
  const net::Reply plain = client.request(datalog.str());
  EXPECT_FALSE(plain.error);
  EXPECT_FALSE(plain.lines.empty());
  EXPECT_EQ(plain.lines[0].rfind("diagnosis ", 0), 0u);
}

TEST(NetSessionVerbs, UnsupportedBackendSaysSo) {
  SessionTestServer server(std::make_unique<NoSessionBackend>());
  net::Client client = server.connect();
  const net::Reply reply = client.request("session begin T\nend\n");
  ASSERT_TRUE(reply.error);
  EXPECT_EQ(reply.error_text, "session verbs not supported by this server");
}

}  // namespace
}  // namespace sddict
