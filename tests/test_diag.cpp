#include <gtest/gtest.h>

#include "bmcirc/embedded.h"
#include "diag/observe.h"
#include "diag/report.h"
#include "diag/twophase.h"
#include "fault/collapse.h"
#include "sim/logicsim.h"

namespace sddict {
namespace {

struct Fixture {
  Netlist nl = make_c17();
  FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests;
  ResponseMatrix rm;
  Fixture() : tests(5) {
    // Exhaustive test set: every fault pair distinguishable by the test set
    // is distinguished, which makes expectations crisp.
    for (std::size_t v = 0; v < 32; ++v) {
      BitVec in(5);
      for (std::size_t i = 0; i < 5; ++i) in.set(i, (v >> i) & 1);
      tests.add(in);
    }
    rm = build_response_matrix(nl, faults, tests);
  }
};

TEST(Observe, ModeledFaultReproducesItsRow) {
  Fixture fx;
  for (FaultId f = 0; f < fx.faults.size(); f += 5) {
    const auto observed =
        observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[f])});
    for (std::size_t t = 0; t < fx.tests.size(); ++t)
      EXPECT_EQ(observed[t], fx.rm.response(f, t)) << "fault " << f;
  }
}

TEST(Observe, FaultFreeChipSeesAllZeroIds) {
  Fixture fx;
  const auto observed = observe_defect(fx.nl, fx.tests, fx.rm, {});
  for (ResponseId id : observed) EXPECT_EQ(id, 0u);
}

TEST(Observe, DefectResponsesMatchStructuralSimulation) {
  Fixture fx;
  const Injection inj = to_injection(fx.faults[2]);
  const auto raw = defect_responses(fx.nl, fx.tests, {inj});
  const Netlist bad = inject_faults(fx.nl, {inj});
  for (std::size_t t = 0; t < fx.tests.size(); ++t)
    EXPECT_EQ(raw[t], simulate_pattern(bad, fx.tests[t]));
}

TEST(Observe, UnmodeledDefectMayProduceUnknownResponses) {
  Fixture fx;
  // A double fault is outside the single-fault model; any test response not
  // matching a modeled fault must come back as kUnknownResponse, and there
  // must be no crash.
  const auto observed = observe_defect(
      fx.nl, fx.tests, fx.rm,
      {to_injection(fx.faults[0]), to_injection(fx.faults[7])});
  EXPECT_EQ(observed.size(), fx.tests.size());
}

TEST(Diagnose, TrueFaultRanksFirstWithAllDictionaries) {
  Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  const auto pf = PassFailDictionary::build(fx.rm);
  const auto sd = SameDifferentDictionary::build(
      fx.rm, std::vector<ResponseId>(fx.tests.size(), 0));
  const FaultId truth = 4;
  const auto observed =
      observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[truth])});
  const auto cmp = compare_dictionaries(full, pf, sd, observed, truth);
  EXPECT_EQ(cmp.full.best_mismatches, 0u);
  EXPECT_EQ(cmp.pass_fail.best_mismatches, 0u);
  EXPECT_EQ(cmp.same_different.best_mismatches, 0u);
  EXPECT_GE(cmp.full.true_fault_rank, 1u);
  EXPECT_LE(cmp.full.true_fault_rank, cmp.full.tied_candidates);
}

TEST(Diagnose, FullNeverCoarserThanPassFail) {
  Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  const auto pf = PassFailDictionary::build(fx.rm);
  const auto sd = SameDifferentDictionary::build(
      fx.rm, std::vector<ResponseId>(fx.tests.size(), 0));
  for (FaultId truth = 0; truth < fx.faults.size(); truth += 3) {
    const auto observed = observe_defect(fx.nl, fx.tests, fx.rm,
                                         {to_injection(fx.faults[truth])});
    const auto cmp = compare_dictionaries(full, pf, sd, observed, truth);
    EXPECT_LE(cmp.full.tied_candidates, cmp.pass_fail.tied_candidates);
  }
}

TEST(Diagnose, TiedCandidatesEqualsDictionaryClassSize) {
  Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  const auto pf = PassFailDictionary::build(fx.rm);
  const auto sd = SameDifferentDictionary::build(
      fx.rm, std::vector<ResponseId>(fx.tests.size(), 0));
  const FaultId truth = 0;
  const auto observed =
      observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[truth])});
  const auto cmp = compare_dictionaries(full, pf, sd, observed, truth);
  const auto cls =
      full.partition().members(full.partition().class_of(truth));
  EXPECT_EQ(cmp.full.tied_candidates, cls.size());
}

TEST(Diagnose, ReportFormatsNames) {
  Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  const auto pf = PassFailDictionary::build(fx.rm);
  const auto sd = SameDifferentDictionary::build(
      fx.rm, std::vector<ResponseId>(fx.tests.size(), 0));
  const auto observed =
      observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[1])});
  const auto cmp = compare_dictionaries(full, pf, sd, observed, 1);
  const std::string report = format_diagnosis(fx.nl, fx.faults, cmp);
  EXPECT_NE(report.find("full dictionary"), std::string::npos);
  EXPECT_NE(report.find("sa"), std::string::npos);
  EXPECT_NE(report.find("true fault ranked"), std::string::npos);
}

// ------------------------------------------------------------ two-phase --

TEST(TwoPhase, ExactCandidatesContainTruth) {
  Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  const auto sd = SameDifferentDictionary::build(
      fx.rm, std::vector<ResponseId>(fx.tests.size(), 0));
  const FaultId truth = 9;
  const auto observed =
      observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[truth])});

  const auto via_pf = two_phase_with_passfail(pf, fx.rm, observed);
  const auto via_sd = two_phase_with_samediff(sd, fx.rm, observed);
  for (const auto* res : {&via_pf, &via_sd}) {
    EXPECT_NE(std::find(res->phase1_candidates.begin(),
                        res->phase1_candidates.end(), truth),
              res->phase1_candidates.end());
    EXPECT_NE(std::find(res->phase2_candidates.begin(),
                        res->phase2_candidates.end(), truth),
              res->phase2_candidates.end());
    // Phase 2 only filters phase 1.
    for (FaultId f : res->phase2_candidates)
      EXPECT_NE(std::find(res->phase1_candidates.begin(),
                          res->phase1_candidates.end(), f),
                res->phase1_candidates.end());
    EXPECT_EQ(res->simulations_run, res->phase1_candidates.size());
    EXPECT_LT(res->simulations_run, fx.faults.size());
  }
}

TEST(TwoPhase, Phase2EqualsFullResponseClass) {
  Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  const FaultId truth = 2;
  const auto observed =
      observe_defect(fx.nl, fx.tests, fx.rm, {to_injection(fx.faults[truth])});
  const auto res = two_phase_with_passfail(pf, fx.rm, observed);
  // Phase-2 candidates are exactly the faults whose full rows equal the
  // observation.
  for (FaultId f = 0; f < fx.faults.size(); ++f) {
    bool same = true;
    for (std::size_t t = 0; t < fx.tests.size() && same; ++t)
      same = fx.rm.response(f, t) == observed[t];
    const bool in_phase2 =
        std::find(res.phase2_candidates.begin(), res.phase2_candidates.end(),
                  f) != res.phase2_candidates.end();
    EXPECT_EQ(in_phase2, same) << f;
  }
}

TEST(TwoPhase, BetterDictionaryNarrowsPhase1) {
  // With a same/different dictionary of strictly better resolution, the
  // phase-1 candidate list can only be narrower or equal for every defect.
  Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  // All-zero baselines equal pass/fail; a tuned baseline set is at least as
  // fine on every class it splits. (Comparison is per-observation.)
  std::vector<ResponseId> baselines(fx.tests.size(), 0);
  for (std::size_t t = 0; t < fx.tests.size(); ++t)
    if (fx.rm.num_distinct(t) > 1) baselines[t] = 1;
  const auto sd = SameDifferentDictionary::build(fx.rm, baselines);
  for (FaultId truth = 0; truth < fx.faults.size(); truth += 4) {
    const auto observed = observe_defect(fx.nl, fx.tests, fx.rm,
                                         {to_injection(fx.faults[truth])});
    const auto a = two_phase_with_passfail(pf, fx.rm, observed);
    const auto b = two_phase_with_samediff(sd, fx.rm, observed);
    // Both end at the same exact phase-2 answer.
    EXPECT_EQ(a.phase2_candidates, b.phase2_candidates);
  }
}

}  // namespace
}  // namespace sddict
