// Compaction suite (ISSUE 10): the dictionary-aware test-set compaction
// subsystem (src/compact) and the incremental delta-store repository flow
// it feeds.
//
//  * planner basics against the full-dictionary resolution oracle: the
//    pair count, lossless pair preservation with the exact verification
//    pass, the lossy bound, anytime budget semantics, and the
//    never-drop-the-last-column guard;
//  * reverse-order minimisation: kept tests ascending, duplicated tests
//    dropped, and re-simulating only the kept tests keeps the
//    full-response and the Procedure-1 same/different resolution;
//  * column surgery identities: select_tests()/concat_tests() route
//    through the same image builder as build(), so splitting a store and
//    concatenating the halves reproduces the original bytes exactly — for
//    every store kind;
//  * the serving identity (clean AND noisy observations, every kind):
//    diagnosing the compacted store with the observation projected onto
//    the kept columns is identical to diagnosing the UNCOMPACTED store
//    with the dropped observations forced to kMissing;
//  * delta repository: base+delta materialization is byte-identical to
//    the equivalent direct build, chains walk correctly, squash collapses
//    them, named errors for malformed deltas, squash honors max_chain;
//  * compact_published(): a drop-only delta lands in the catalog and the
//    hot-swap identity gate holds while 4 producer threads query through
//    a repository-backed DiagnosisService mid-compaction (the TSan gate).
//
// Registered under the "serving" ctest label; the tsan preset includes it.
#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/embedded.h"
#include "bmcirc/registry.h"
#include "bmcirc/synth.h"
#include "compact/compact.h"
#include "compact/plan.h"
#include "compact/repo_compact.h"
#include "core/baseline.h"
#include "diag/engine.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "faultinject.h"
#include "netlist/transform.h"
#include "repo/repository.h"
#include "serve/diagnosis_service.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "tgen/compact.h"
#include "util/budget.h"
#include "util/rng.h"

namespace sddict {
namespace {

using testing::NoiseChannel;
using testing::apply_noise;

// ------------------------------------------------------------- fixtures --

ResponseMatrix compact_matrix() {
  SynthProfile profile;
  profile.name = "compact";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 80;
  profile.seed = 0xc0ac;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(17);
  // Enough random tests that many columns split no pair the others do not
  // already split — the compactor has real work to do.
  tests.add_random(56, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = compact_matrix();
  return m;
}

std::vector<ResponseId> sd_baselines() {
  std::vector<ResponseId> bl(rm().num_tests(), 0);
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    if (rm().num_distinct(t) > 1 && t % 2 == 0) bl[t] = 1;
  return bl;
}

std::vector<std::vector<ResponseId>> mb_baselines() {
  std::vector<std::vector<ResponseId>> bl(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t) {
    bl[t] = {0};
    if (rm().num_distinct(t) > 1 && t % 3 == 0) bl[t].push_back(1);
  }
  return bl;
}

// One store per kind, as the serving layer would load them.
std::vector<SignatureStore> all_kind_stores() {
  std::vector<SignatureStore> out;
  out.push_back(SignatureStore::build(PassFailDictionary::build(rm())));
  out.push_back(
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines())));
  out.push_back(SignatureStore::build(
      MultiBaselineDictionary::build(rm(), mb_baselines())));
  out.push_back(SignatureStore::build(FullDictionary::build(rm())));
  out.push_back(SignatureStore::build(FirstFailDictionary::build(rm())));
  return out;
}

// The fault's exact full-width observation.
std::vector<ResponseId> fault_response(FaultId f) {
  std::vector<ResponseId> ids(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    ids[t] = rm().response(f, t);
  return ids;
}

// Full-width observation with the dropped columns forced to kMissing —
// the uncompacted-store equivalent of serving a compacted store.
std::vector<Observed> with_dropped_missing(
    const std::vector<Observed>& obs, const std::vector<std::size_t>& dropped) {
  std::vector<Observed> out = obs;
  for (const std::size_t t : dropped) out[t] = Observed::missing();
  return out;
}

// Tie-insensitive equivalence: same verdict, counts, margin and candidate
// SET. Used where one side's observation is clean and the other's carries
// kMissing records — the engine's degraded-observation tiebreak may
// legally reorder tied candidates between the two (see compact/compact.h).
// Callers widen max_results to the fault count so truncation can never
// split a tie group differently on the two sides.
void expect_equivalent_diagnosis(const EngineDiagnosis& a,
                                 const EngineDiagnosis& b,
                                 const std::string& what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.best_mismatches, b.best_mismatches) << what;
  EXPECT_EQ(a.margin, b.margin) << what;
  EXPECT_EQ(a.effective_tests, b.effective_tests) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
  const auto canonical = [](const EngineDiagnosis& d) {
    std::vector<std::pair<std::uint32_t, FaultId>> c;
    c.reserve(d.matches.size());
    for (const DiagnosisMatch& m : d.matches) c.emplace_back(m.mismatches, m.fault);
    std::sort(c.begin(), c.end());
    return c;
  };
  EXPECT_EQ(canonical(a), canonical(b)) << what;
}

// The engine's tied-candidate order matches between a compacted store and
// the dropped-to-kMissing reference exactly when both observations look
// equally degraded: i.e. when the projected observation still carries a
// don't-care record of its own. Otherwise only the reference engages the
// degraded-observation tiebreak and tied candidates may legally reorder.
bool projection_is_degraded(const std::vector<Observed>& projected) {
  for (const Observed& o : projected)
    if (o.dont_care()) return true;
  return false;
}

void expect_same_diagnosis(const EngineDiagnosis& a, const EngineDiagnosis& b,
                           const std::string& what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.best_mismatches, b.best_mismatches) << what;
  EXPECT_EQ(a.margin, b.margin) << what;
  EXPECT_EQ(a.effective_tests, b.effective_tests) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].fault, b.matches[i].fault) << what << " #" << i;
    EXPECT_EQ(a.matches[i].mismatches, b.matches[i].mismatches)
        << what << " #" << i;
  }
  EXPECT_EQ(a.cover, b.cover) << what;
}

std::string fresh_repo_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sddict_compact_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --------------------------------------------------------------- planner --

TEST(CompactionPlanner, PairOracleMatchesFullDictionary) {
  const SymbolMatrix m = response_symbols(rm());
  std::vector<std::size_t> all(m.num_tests());
  for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
  EXPECT_EQ(indistinguished_pairs(m, all),
            FullDictionary::build(rm()).indistinguished_pairs());
}

TEST(CompactionPlanner, LosslessPlanPreservesPairsAndVerifies) {
  const SymbolMatrix m = response_symbols(rm());
  const CompactionPlan plan = plan_compaction(m);
  EXPECT_TRUE(plan.completed);
  EXPECT_TRUE(plan.verified);
  EXPECT_EQ(plan.pairs_after, plan.pairs_before);
  EXPECT_EQ(plan.kept.size() + plan.dropped.size(), m.num_tests());
  // The verification pass cross-checks internally; cross-check the oracle
  // here once more from the outside.
  EXPECT_EQ(indistinguished_pairs(m, plan.kept), plan.pairs_before);
  // Random tests on a small circuit always carry redundant columns.
  EXPECT_FALSE(plan.dropped.empty());
}

TEST(CompactionPlanner, DuplicateColumnsAreDropped) {
  // Two identical columns: one must go, losslessly.
  SymbolMatrix m(4, 3);
  const std::uint64_t col0[4] = {0, 1, 0, 1};
  const std::uint64_t col2[4] = {0, 0, 1, 1};
  for (std::size_t f = 0; f < 4; ++f) {
    m.set(f, 0, col0[f]);
    m.set(f, 1, col0[f]);  // duplicate of column 0
    m.set(f, 2, col2[f]);
  }
  const CompactionPlan plan = plan_compaction(m);
  EXPECT_EQ(plan.pairs_after, plan.pairs_before);
  EXPECT_EQ(plan.kept.size(), 2u);
  // Exactly one of the twins survives.
  EXPECT_EQ((plan.kept[0] == 0) + (plan.kept[0] == 1) + (plan.kept[1] == 0) +
                (plan.kept[1] == 1),
            1);
}

TEST(CompactionPlanner, LossyBoundIsRespected) {
  const SymbolMatrix m = response_symbols(rm());
  const CompactionPlan lossless = plan_compaction(m);
  PlanOptions opts;
  opts.max_resolution_loss = 3;
  const CompactionPlan lossy = plan_compaction(m, opts);
  EXPECT_LE(lossy.pairs_after - lossy.pairs_before, 3u);
  EXPECT_LE(lossy.kept.size(), lossless.kept.size());
  EXPECT_TRUE(lossy.verified);
  EXPECT_EQ(indistinguished_pairs(m, lossy.kept), lossy.pairs_after);
}

TEST(CompactionPlanner, CancelledBudgetKeepsEverythingAnytime) {
  const SymbolMatrix m = response_symbols(rm());
  CancelToken cancel;
  cancel.cancel();
  PlanOptions opts;
  opts.budget.cancel = cancel;
  const CompactionPlan plan = plan_compaction(m, opts);
  EXPECT_FALSE(plan.completed);
  EXPECT_EQ(plan.stop_reason, StopReason::kCancelled);
  // Anytime semantics: unprocessed candidates are kept, the plan is valid.
  EXPECT_EQ(plan.kept.size(), m.num_tests());
  EXPECT_EQ(plan.pairs_after, plan.pairs_before);
}

TEST(CompactionPlanner, NeverDropsTheLastColumn) {
  // Every column identical: all of them are individually redundant, but a
  // store with zero tests is not a thing — one column must survive.
  SymbolMatrix m(3, 4);
  for (std::size_t f = 0; f < 3; ++f)
    for (std::size_t t = 0; t < 4; ++t) m.set(f, t, f);
  const CompactionPlan plan = plan_compaction(m);
  EXPECT_EQ(plan.kept.size(), 1u);
  EXPECT_EQ(plan.pairs_after, plan.pairs_before);
}

TEST(CompactionPlanner, AdIndexStatsMatchTheOracle) {
  const SymbolMatrix m = response_symbols(rm());
  const CompactionPlan plan = plan_compaction(m);
  ASSERT_EQ(plan.stats.size(), m.num_tests());
  std::vector<std::size_t> all(m.num_tests());
  for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
  const std::uint64_t base = indistinguished_pairs(m, all);
  for (std::size_t t = 0; t < m.num_tests(); ++t) {
    std::vector<std::size_t> without;
    for (std::size_t u = 0; u < m.num_tests(); ++u)
      if (u != t) without.push_back(u);
    // unique_pairs is exactly the resolution lost by dropping only t.
    EXPECT_EQ(indistinguished_pairs(m, without) - base, plan.stats[t].unique_pairs)
        << "test " << t;
  }
}

// -------------------------------------------------------- column surgery --

TEST(StoreSurgery, SplitAndConcatReproduceOriginalBytes) {
  for (const SignatureStore& store : all_kind_stores()) {
    const std::string what = store_kind_name(store.kind());
    const std::size_t half = store.num_tests() / 2;
    std::vector<std::size_t> lo, hi, all;
    for (std::size_t t = 0; t < store.num_tests(); ++t) {
      all.push_back(t);
      (t < half ? lo : hi).push_back(t);
    }
    EXPECT_EQ(store.select_tests(all).to_bytes(), store.to_bytes()) << what;
    const SignatureStore joined = SignatureStore::concat_tests(
        store.select_tests(lo), store.select_tests(hi));
    EXPECT_EQ(joined.to_bytes(), store.to_bytes()) << what;
  }
}

TEST(StoreSurgery, SelectTestsValidatesItsArguments) {
  const SignatureStore store =
      SignatureStore::build(PassFailDictionary::build(rm()));
  EXPECT_THROW(store.select_tests({}), std::runtime_error);
  EXPECT_THROW(store.select_tests({1, 1}), std::runtime_error);
  EXPECT_THROW(store.select_tests({2, 1}), std::runtime_error);
  EXPECT_THROW(store.select_tests({store.num_tests()}), std::runtime_error);
}

TEST(StoreSurgery, ConcatRejectsIncompatibleStores) {
  const SignatureStore pf =
      SignatureStore::build(PassFailDictionary::build(rm()));
  const SignatureStore sd =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));
  EXPECT_THROW(SignatureStore::concat_tests(pf, sd), std::runtime_error);
}

// ------------------------------------------------------ store compaction --

TEST(StoreCompaction, LosslessPreservesResolutionEveryKind) {
  for (const SignatureStore& store : all_kind_stores()) {
    const std::string what = store_kind_name(store.kind());
    const CompactionResult cr = compact_store(store);
    EXPECT_TRUE(cr.report.completed) << what;
    EXPECT_TRUE(cr.report.verified) << what;
    EXPECT_EQ(cr.report.pairs_after, cr.report.pairs_before) << what;
    EXPECT_EQ(cr.report.tests_after + cr.report.dropped.size(),
              cr.report.tests_before)
        << what;
    EXPECT_EQ(cr.store.num_tests(), cr.report.tests_after) << what;
    EXPECT_LE(cr.report.bytes_after, cr.report.bytes_before) << what;
  }
}

TEST(StoreCompaction, DiagnosisIdentityCleanAndNoisyEveryKind) {
  for (const SignatureStore& store : all_kind_stores()) {
    const std::string what = store_kind_name(store.kind());
    const CompactionResult cr = compact_store(store);
    std::vector<std::size_t> kept;
    {
      std::size_t d = 0;
      for (std::size_t t = 0; t < store.num_tests(); ++t) {
        if (d < cr.report.dropped.size() && cr.report.dropped[d] == t)
          ++d;
        else
          kept.push_back(t);
      }
    }
    for (FaultId f = 0; f < rm().num_faults(); f += 7) {
      const std::vector<ResponseId> ids = fault_response(f);
      // Clean and noisy (flips + drops) observations of the same fault.
      const std::vector<std::vector<Observed>> cases = {
          qualify(ids),
          apply_noise(ids, rm(),
                      NoiseChannel{.flip_rate = 0.1,
                                   .drop_rate = 0.1,
                                   .seed = 0xbead + f}),
      };
      for (std::size_t c = 0; c < cases.size(); ++c) {
        // When the projection strips every don't-care record the reference
        // side alone is "degraded" and tied candidates may legally reorder
        // (see compact/compact.h) — compare untruncated and
        // tie-insensitively there, exactly (including order) otherwise.
        const std::vector<Observed> projected =
            project_observations(cases[c], kept);
        const bool exact = projection_is_degraded(projected);
        EngineOptions opts;
        if (!exact) opts.max_results = rm().num_faults();
        const EngineDiagnosis compacted =
            diagnose_observed(cr.store, projected, opts);
        const EngineDiagnosis reference = diagnose_observed(
            store, with_dropped_missing(cases[c], cr.report.dropped), opts);
        const std::string label = what + " fault " + std::to_string(f) +
                                  (c == 0 ? " clean" : " noisy");
        if (exact)
          expect_same_diagnosis(compacted, reference, label);
        else
          expect_equivalent_diagnosis(compacted, reference, label);
      }
    }
  }
}

TEST(StoreCompaction, DuplicatedStoreLosesTheDuplicates) {
  const SignatureStore store =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));
  const SignatureStore dup = SignatureStore::concat_tests(store, store);
  const CompactionResult cr = compact_store(dup);
  // Every column appears twice; at least half the columns must go, and
  // resolution must not move.
  EXPECT_LE(cr.store.num_tests(), store.num_tests());
  EXPECT_EQ(cr.report.pairs_after, cr.report.pairs_before);
}

TEST(TestsetCompaction, KeptTestsPreserveFullResponseResolution) {
  SynthProfile profile;
  profile.name = "tsc";
  profile.inputs = 9;
  profile.outputs = 3;
  profile.dffs = 0;
  profile.gates = 60;
  profile.seed = 0x7e57;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(23);
  tests.add_random(40, rng);
  const ResponseMatrix m = build_response_matrix(nl, faults, tests);

  const TestsetCompaction tc = compact_testset(m, tests);
  EXPECT_EQ(tc.tests.size(), tc.plan.kept.size());
  // Re-simulating only the kept tests yields the same fault partition.
  const ResponseMatrix m2 = build_response_matrix(nl, faults, tc.tests);
  EXPECT_EQ(FullDictionary::build(m2).indistinguished_pairs(),
            FullDictionary::build(m).indistinguished_pairs());

  // The reverse-order front end in tgen agrees with the planner run here.
  const TestSet rev = compact_reverse_diagnostic(nl, faults, tests);
  const ResponseMatrix m3 = build_response_matrix(nl, faults, rev);
  EXPECT_EQ(FullDictionary::build(m3).indistinguished_pairs(),
            FullDictionary::build(m).indistinguished_pairs());
}

TEST(TestsetCompaction, ProjectObservationsChecksBounds) {
  const std::vector<Observed> obs = qualify(fault_response(0));
  EXPECT_THROW(project_observations(obs, {obs.size()}), std::invalid_argument);
}

// ----------------------------------------------- reverse-order minimisation --
//
// Test-set minimisation in reverse order: the planner with
// CandidateOrder::kReverse over random tests of c17 and s298.

struct RandomTests {
  Netlist nl;
  FaultList faults;
  TestSet tests{0};
  ResponseMatrix rm;
  RandomTests(std::size_t k, std::uint64_t seed, const char* name = "c17") {
    nl = std::string(name) == "c17" ? make_c17()
                                    : full_scan(load_benchmark(name));
    faults = collapsed_fault_list(nl).collapsed;
    tests = TestSet(nl.num_inputs());
    Rng rng(seed);
    tests.add_random(k, rng);
    rm = build_response_matrix(nl, faults, tests);
  }
  TestSet doubled() const {
    TestSet out(nl.num_inputs());
    out.append(tests);
    out.append(tests);
    return out;
  }
};

const CompactionOptions kReverseOrder{.order = CandidateOrder::kReverse};

TEST(MinimizeFull, PreservesFullResolutionExactly) {
  const RandomTests fx(60, 3);
  const auto before = FullDictionary::build(fx.rm).indistinguished_pairs();
  const TestsetCompaction tc = compact_testset(fx.rm, fx.tests, kReverseOrder);
  EXPECT_EQ(tc.plan.pairs_after, before);
  EXPECT_EQ(tc.plan.kept.size() + tc.plan.dropped.size(), fx.tests.size());

  const ResponseMatrix rm2 =
      build_response_matrix(fx.nl, fx.faults, fx.tests.subset(tc.plan.kept));
  EXPECT_EQ(FullDictionary::build(rm2).indistinguished_pairs(), before);
}

TEST(MinimizeFull, DropsRedundantDuplicatesAggressively) {
  // A test set with every test twice must lose at least half.
  const RandomTests fx(20, 5);
  const TestSet doubled = fx.doubled();
  const TestsetCompaction tc = compact_testset(
      build_response_matrix(fx.nl, fx.faults, doubled), doubled, kReverseOrder);
  EXPECT_LE(tc.plan.kept.size(), fx.tests.size());
}

TEST(MinimizeFull, KeptIndicesAscendingAndValid) {
  const RandomTests fx(40, 7);
  const std::vector<std::size_t> kept =
      compact_testset(fx.rm, fx.tests, kReverseOrder).plan.kept;
  for (std::size_t i = 1; i < kept.size(); ++i) EXPECT_LT(kept[i - 1], kept[i]);
  for (const std::size_t t : kept) EXPECT_LT(t, fx.tests.size());
}

TEST(MinimizeSameDiff, PreservesDictionaryResolution) {
  const RandomTests fx(60, 9);
  BaselineSelectionConfig cfg;
  cfg.calls1 = 3;
  const BaselineSelection p1 = run_procedure1(fx.rm, cfg);
  const CompactionPlan plan = plan_store_compaction(
      SignatureStore::build(SameDifferentDictionary::build(fx.rm, p1.baselines)),
      kReverseOrder);
  EXPECT_EQ(plan.pairs_after, p1.indistinguished_pairs);

  // Rebuild the dictionary over the kept tests only. Response ids are
  // interned per matrix, so baselines translate through their signatures.
  const ResponseMatrix rm2 =
      build_response_matrix(fx.nl, fx.faults, fx.tests.subset(plan.kept));
  std::vector<ResponseId> kept_baselines(plan.kept.size(), 0);
  for (std::size_t i = 0; i < plan.kept.size(); ++i) {
    const ResponseId b = p1.baselines[plan.kept[i]];
    if (b == 0) continue;
    kept_baselines[i] = rm2.find_response(i, fx.rm.signature(plan.kept[i], b));
    ASSERT_NE(kept_baselines[i], static_cast<ResponseId>(-1));
  }
  EXPECT_EQ(SameDifferentDictionary::build(rm2, kept_baselines)
                .indistinguished_pairs(),
            p1.indistinguished_pairs);
}

TEST(MinimizeSameDiff, AllPassColumnsAlwaysDropped) {
  // Under fault-free baselines a duplicated column distinguishes nothing
  // its twin does not, so every test twice loses at least half.
  const RandomTests fx(15, 11);
  const ResponseMatrix rm =
      build_response_matrix(fx.nl, fx.faults, fx.doubled());
  const std::vector<ResponseId> baselines(rm.num_tests(), 0);
  const CompactionPlan plan = plan_store_compaction(
      SignatureStore::build(SameDifferentDictionary::build(rm, baselines)),
      kReverseOrder);
  EXPECT_LE(plan.kept.size(), fx.tests.size());
  EXPECT_EQ(plan.pairs_after, plan.pairs_before);
}

TEST(Minimize, RealisticShrinkOnBenchmark) {
  const RandomTests fx(200, 15, "s298");
  const TestsetCompaction tc = compact_testset(fx.rm, fx.tests, kReverseOrder);
  // 200 random tests on s298 carry substantial redundancy.
  EXPECT_LT(tc.plan.kept.size(), fx.tests.size());
  EXPECT_FALSE(tc.plan.dropped.empty());
  EXPECT_EQ(tc.plan.pairs_after,
            FullDictionary::build(fx.rm).indistinguished_pairs());
}

// Store rows are whole 64-bit words, so a compaction that takes a row
// from two words to one must shrink the store image. s344 with 80 random
// tests compacts to fewer than 64 kept tests under pass/fail.
TEST(StoreCompaction, ShrinksTheStoreWhenKeptTestsCrossAWordBoundary) {
  const RandomTests fx(80, 1, "s344");
  const SignatureStore store =
      SignatureStore::build(PassFailDictionary::build(fx.rm));
  const CompactionResult cr = compact_store(store);
  ASSERT_GT(cr.report.tests_before, 64u);
  ASSERT_LE(cr.report.tests_after, 64u);
  EXPECT_EQ(cr.report.pairs_after, cr.report.pairs_before);
  EXPECT_EQ(cr.report.bytes_before, store.size_bytes());
  EXPECT_EQ(cr.report.bytes_after, cr.store.size_bytes());
  EXPECT_LT(cr.report.bytes_after, cr.report.bytes_before);
}

// -------------------------------------------------------- delta repository --

TEST(DeltaRepository, MaterializationIsByteIdenticalToDirectBuild) {
  const std::string dir = fresh_repo_dir("materialize");
  DictionaryRepository repo(dir);
  const SignatureStore full =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));
  const std::size_t half = full.num_tests() / 2;
  std::vector<std::size_t> lo, hi;
  for (std::size_t t = 0; t < full.num_tests(); ++t)
    (t < half ? lo : hi).push_back(t);

  // v1 = first half; v2 = delta appending the second half. Acquiring v2
  // must reproduce the full store byte for byte.
  repo.publish("c1", StoreSource::kSameDifferent, full.select_tests(lo), {});
  const SignatureStore added = full.select_tests(hi);
  const ManifestEntry e2 =
      repo.publish_delta("c1", StoreSource::kSameDifferent, &added, {}, {});
  EXPECT_TRUE(e2.is_delta);
  EXPECT_EQ(e2.base_version, 1u);
  EXPECT_EQ(e2.added_tests, hi.size());
  EXPECT_EQ(repo.acquire("c1", StoreSource::kSameDifferent)->to_bytes(),
            full.to_bytes());

  // v3 = drop-only delta dropping the first half again: equals the second
  // half built directly. No artifact file is written for it.
  std::vector<std::uint64_t> drop(lo.begin(), lo.end());
  const ManifestEntry e3 = repo.publish_delta(
      "c1", StoreSource::kSameDifferent, nullptr, drop, {});
  EXPECT_TRUE(e3.file.empty());
  EXPECT_EQ(e3.bytes, 0u);
  EXPECT_EQ(repo.acquire("c1", StoreSource::kSameDifferent)->to_bytes(),
            full.select_tests(hi).to_bytes());

  // Reload from disk: the chain still materializes identically.
  DictionaryRepository cold(dir);
  EXPECT_EQ(cold.chain_length("c1", StoreSource::kSameDifferent), 2u);
  EXPECT_EQ(cold.acquire("c1", StoreSource::kSameDifferent)->to_bytes(),
            full.select_tests(hi).to_bytes());
}

TEST(DeltaRepository, SquashCollapsesTheChain) {
  const std::string dir = fresh_repo_dir("squash");
  DictionaryRepository repo(dir);
  const SignatureStore full =
      SignatureStore::build(PassFailDictionary::build(rm()));
  const std::size_t n = full.num_tests();
  std::vector<std::size_t> first, rest;
  for (std::size_t t = 0; t < n; ++t) (t < n - 8 ? first : rest).push_back(t);
  repo.publish("c2", StoreSource::kPassFail, full.select_tests(first), {});
  const SignatureStore added = full.select_tests(rest);
  repo.publish_delta("c2", StoreSource::kPassFail, &added, {}, {});
  repo.publish_delta("c2", StoreSource::kPassFail, nullptr, {0, 1}, {});
  EXPECT_EQ(repo.chain_length("c2", StoreSource::kPassFail), 2u);

  const auto before = repo.acquire("c2", StoreSource::kPassFail)->to_bytes();
  const ManifestEntry sq = repo.squash("c2", StoreSource::kPassFail).entry;
  EXPECT_FALSE(sq.is_delta);
  EXPECT_EQ(sq.version, 4u);
  EXPECT_EQ(repo.chain_length("c2", StoreSource::kPassFail), 0u);
  EXPECT_EQ(repo.acquire("c2", StoreSource::kPassFail)->to_bytes(), before);
  // Squashing a full latest is a no-op returning the existing entry.
  EXPECT_EQ(repo.squash("c2", StoreSource::kPassFail).entry.version, 4u);
}

TEST(DeltaRepository, MalformedDeltasAreNamedErrors) {
  const std::string dir = fresh_repo_dir("errors");
  DictionaryRepository repo(dir);
  const SignatureStore pf =
      SignatureStore::build(PassFailDictionary::build(rm()));
  const SignatureStore sd =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));

  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  // No base version published yet.
  EXPECT_NE(message_of([&] {
              repo.publish_delta("c3", StoreSource::kPassFail, &pf, {}, {});
            }).find("cannot publish a delta"),
            std::string::npos);
  repo.publish("c3", StoreSource::kPassFail, pf, {});
  // Nothing added, nothing dropped.
  EXPECT_NE(message_of([&] {
              repo.publish_delta("c3", StoreSource::kPassFail, nullptr, {}, {});
            }).find("empty delta"),
            std::string::npos);
  // Unsorted drop list.
  EXPECT_NE(message_of([&] {
              repo.publish_delta("c3", StoreSource::kPassFail, nullptr, {2, 1},
                                 {});
            }).find("strictly ascending"),
            std::string::npos);
  // Out-of-range drop.
  EXPECT_NE(
      message_of([&] {
        repo.publish_delta("c3", StoreSource::kPassFail, nullptr,
                           {static_cast<std::uint64_t>(pf.num_tests())}, {});
      }).find("out of range"),
      std::string::npos);
  // Dropping every base column.
  std::vector<std::uint64_t> all(pf.num_tests());
  for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
  EXPECT_NE(message_of([&] {
              repo.publish_delta("c3", StoreSource::kPassFail, nullptr, all,
                                 {});
            }).find("every base test column"),
            std::string::npos);
  // Added store of an incompatible kind.
  EXPECT_FALSE(message_of([&] {
                 repo.publish_delta("c3", StoreSource::kPassFail, &sd, {}, {});
               }).empty());
  // None of those attempts may have advanced the catalog.
  EXPECT_EQ(repo.latest_version("c3", StoreSource::kPassFail), 1u);
}

TEST(DeltaRepository, SquashAsyncHonorsMaxChain) {
  const std::string dir = fresh_repo_dir("squash_max_chain");
  DictionaryRepository repo(dir);
  const SignatureStore full =
      SignatureStore::build(PassFailDictionary::build(rm()));
  repo.publish("c4", StoreSource::kPassFail, full, {});
  repo.publish_delta("c4", StoreSource::kPassFail, nullptr, {0}, {});
  // Chain (1) is within bounds: returns the existing latest.
  ManifestEntry e = repo.squash("c4", StoreSource::kPassFail, 1).entry;
  EXPECT_EQ(e.version, 2u);
  EXPECT_TRUE(e.is_delta);
  // Chain exceeds bounds: a fresh full version appears.
  e = repo.squash("c4", StoreSource::kPassFail, 0).entry;
  EXPECT_EQ(e.version, 3u);
  EXPECT_FALSE(e.is_delta);
  EXPECT_EQ(repo.chain_length("c4", StoreSource::kPassFail), 0u);
}

// ----------------------------------------------------- compact_published --

TEST(RepoCompaction, PublishesADropOnlyDeltaAndPreservesDiagnosis) {
  const std::string dir = fresh_repo_dir("compact_published");
  DictionaryRepository repo(dir);
  const SignatureStore store =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));
  // Duplicate every column so the compactor provably has redundancy.
  const SignatureStore dup = SignatureStore::concat_tests(store, store);
  Provenance prov;
  prov.tests_hash = "00112233445566778899aabbccddeeff";
  repo.publish("c5", StoreSource::kSameDifferent, dup, prov);

  const RepoCompaction rc =
      compact_published(repo, "c5", StoreSource::kSameDifferent);
  ASSERT_TRUE(rc.published);
  EXPECT_TRUE(rc.entry.is_delta);
  EXPECT_EQ(rc.entry.added_tests, 0u);
  EXPECT_EQ(rc.entry.version, 2u);
  EXPECT_EQ(rc.report.pairs_after, rc.report.pairs_before);
  EXPECT_FALSE(rc.report.dropped.empty());
  // Derived tests hash: changed, deterministic, still 32 hex chars.
  EXPECT_NE(rc.entry.provenance.tests_hash, prov.tests_hash);
  EXPECT_EQ(rc.entry.provenance.tests_hash.size(), prov.tests_hash.size());

  // Serving identity across the compaction, clean and noisy.
  const auto compacted = repo.acquire("c5", StoreSource::kSameDifferent);
  std::vector<std::size_t> kept;
  {
    std::size_t d = 0;
    for (std::size_t t = 0; t < dup.num_tests(); ++t) {
      if (d < rc.report.dropped.size() && rc.report.dropped[d] == t)
        ++d;
      else
        kept.push_back(t);
    }
  }
  for (FaultId f = 0; f < rm().num_faults(); f += 11) {
    std::vector<ResponseId> ids = fault_response(f);
    std::vector<ResponseId> twice = ids;
    twice.insert(twice.end(), ids.begin(), ids.end());
    // apply_noise is bounded by the matrix's test count, so noise the
    // single-width observation and duplicate it to the store's width.
    const std::vector<Observed> noisy_half =
        apply_noise(ids, rm(),
                    NoiseChannel{.flip_rate = 0.05,
                                 .drop_rate = 0.05,
                                 .seed = 0xf00d + f});
    std::vector<Observed> noisy = noisy_half;
    noisy.insert(noisy.end(), noisy_half.begin(), noisy_half.end());
    const std::vector<std::vector<Observed>> cases = {
        qualify(twice),
        noisy,
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
      // See DiagnosisIdentityCleanAndNoisyEveryKind: exact identity only
      // when the projection keeps a don't-care record of its own.
      const std::vector<Observed> projected =
          project_observations(cases[c], kept);
      const bool exact = projection_is_degraded(projected);
      EngineOptions opts;
      if (!exact) opts.max_results = rm().num_faults();
      const EngineDiagnosis a = diagnose_observed(*compacted, projected, opts);
      const EngineDiagnosis b = diagnose_observed(
          dup, with_dropped_missing(cases[c], rc.report.dropped), opts);
      const std::string label = "fault " + std::to_string(f) +
                                (c == 0 ? " clean" : " noisy");
      if (exact)
        expect_same_diagnosis(a, b, label);
      else
        expect_equivalent_diagnosis(a, b, label);
    }
  }

  // Already minimal: a second compaction publishes nothing.
  const RepoCompaction again =
      compact_published(repo, "c5", StoreSource::kSameDifferent);
  EXPECT_FALSE(again.published);
  EXPECT_EQ(repo.latest_version("c5", StoreSource::kSameDifferent), 2u);
}

// The TSan gate: 4 producer threads query a repository-backed service
// while the main thread compacts the published store and hot-swaps the
// service to the new version. Epoch consistency: every reply is either
// the full-store answer (request processed before the swap) or the
// engine's named size error (full-width observation meeting the already-
// compacted store) — never a torn or silently wrong ranking.
TEST(RepoCompaction, HotSwapIdentityUnderConcurrentQueries) {
  const std::string dir = fresh_repo_dir("hotswap");
  DictionaryRepository repo(dir);
  const SignatureStore store =
      SignatureStore::build(SameDifferentDictionary::build(rm(), sd_baselines()));
  const SignatureStore dup = SignatureStore::concat_tests(store, store);
  repo.publish("c6", StoreSource::kSameDifferent, dup, {});

  ServiceOptions sopts;
  sopts.threads = 2;
  sopts.batch = 4;
  sopts.cache = 0;
  DiagnosisService service(repo.acquire("c6", StoreSource::kSameDifferent),
                           sopts);

  constexpr int kProducers = 4;
  constexpr int kQueries = 40;
  std::vector<std::string> failures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kQueries; ++i) {
        const auto f =
            static_cast<FaultId>((p * kQueries + i) % rm().num_faults());
        std::vector<ResponseId> ids = fault_response(f);
        std::vector<ResponseId> twice = ids;
        twice.insert(twice.end(), ids.begin(), ids.end());
        const std::vector<Observed> obs = qualify(twice);
        try {
          const ServiceResponse r = service.submit(obs).get();
          const EngineDiagnosis direct = diagnose_observed(dup, obs);
          if (r.diagnosis.outcome != direct.outcome ||
              r.diagnosis.matches.size() != direct.matches.size() ||
              (!r.diagnosis.matches.empty() &&
               r.diagnosis.matches[0].fault != direct.matches[0].fault)) {
            failures[p] = "divergent ranking for fault " + std::to_string(f);
            return;
          }
        } catch (const std::exception& e) {
          // Only the post-swap size mismatch is a legal failure.
          if (std::string(e.what()).find("observ") == std::string::npos) {
            failures[p] = e.what();
            return;
          }
        }
      }
    });
  }

  const RepoCompaction rc =
      compact_published(repo, "c6", StoreSource::kSameDifferent);
  ASSERT_TRUE(rc.published);
  service.swap_store(repo.acquire("c6", StoreSource::kSameDifferent));
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(failures[p], "") << "producer " << p;

  // After the swap: projected queries against the service equal the
  // direct engine call on the compacted store.
  const auto compacted = repo.acquire("c6", StoreSource::kSameDifferent);
  std::vector<std::size_t> kept;
  {
    std::size_t d = 0;
    for (std::size_t t = 0; t < dup.num_tests(); ++t) {
      if (d < rc.report.dropped.size() && rc.report.dropped[d] == t)
        ++d;
      else
        kept.push_back(t);
    }
  }
  for (FaultId f = 0; f < rm().num_faults(); f += 13) {
    std::vector<ResponseId> ids = fault_response(f);
    std::vector<ResponseId> twice = ids;
    twice.insert(twice.end(), ids.begin(), ids.end());
    const std::vector<Observed> obs =
        project_observations(qualify(twice), kept);
    const ServiceResponse r = service.submit(obs).get();
    expect_same_diagnosis(r.diagnosis, diagnose_observed(*compacted, obs),
                          "post-swap fault " + std::to_string(f));
  }
}

}  // namespace
}  // namespace sddict
