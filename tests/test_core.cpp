#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "bmcirc/embedded.h"
#include "bmcirc/registry.h"
#include "bmcirc/synth.h"
#include "core/baseline.h"
#include "core/hybrid.h"
#include "core/pairset.h"
#include "core/procedure2.h"
#include "dict/full_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "sim/logicsim.h"

namespace sddict {
namespace {

// The paper's worked example (Tables 1-5).
ResponseMatrix paper_example() {
  const std::vector<BitVec> ff = {BitVec::from_string("00"),
                                  BitVec::from_string("00")};
  const std::vector<std::vector<BitVec>> faulty = {
      {BitVec::from_string("10"), BitVec::from_string("11")},
      {BitVec::from_string("00"), BitVec::from_string("10")},
      {BitVec::from_string("01"), BitVec::from_string("10")},
      {BitVec::from_string("01"), BitVec::from_string("00")},
  };
  return response_matrix_from_table(ff, faulty);
}

ResponseMatrix c17_matrix(std::size_t num_tests, std::uint64_t seed,
                          FaultList* out_faults = nullptr) {
  static const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  if (out_faults != nullptr) *out_faults = faults;
  TestSet tests(nl.num_inputs());
  Rng rng(seed);
  tests.add_random(num_tests, rng);
  return build_response_matrix(nl, faults, tests);
}

// ------------------------------------------------------ candidate_dist  --

TEST(CandidateDist, ReproducesPaperTable4) {
  const ResponseMatrix rm = paper_example();
  Partition part(4);
  const auto dist = candidate_dist(rm, 0, part);
  // Z_0 = {00 (id0), 10, 01}. Table 4: dist(00)=3, dist(10)=3, dist(01)=4.
  ASSERT_EQ(dist.size(), 3u);
  EXPECT_EQ(dist[rm.response(1, 0)], 3u);  // 00 = fault-free id
  EXPECT_EQ(dist[rm.response(0, 0)], 3u);  // 10
  EXPECT_EQ(dist[rm.response(2, 0)], 4u);  // 01
}

TEST(CandidateDist, ReproducesPaperTable5AfterFirstSelection) {
  const ResponseMatrix rm = paper_example();
  Partition part(4);
  const ResponseId bl0 = rm.response(2, 0);  // 01, selected in Table 4
  part.refine_with([&](std::uint32_t f) {
    return static_cast<std::uint32_t>(rm.response(f, 0) == bl0);
  });
  const auto dist = candidate_dist(rm, 1, part);
  // Table 5: dist(11)=1, dist(10)=2, dist(00)=1.
  EXPECT_EQ(dist[rm.response(0, 1)], 1u);  // 11
  EXPECT_EQ(dist[rm.response(1, 1)], 2u);  // 10
  EXPECT_EQ(dist[0], 1u);                  // 00 = fault-free
}

TEST(CandidateDist, SingletonClassesContributeNothing) {
  const ResponseMatrix rm = paper_example();
  Partition part(4);
  part.refine({0, 1, 2, 3});  // fully refined
  const auto dist = candidate_dist(rm, 0, part);
  for (auto d : dist) EXPECT_EQ(d, 0u);
}

// ------------------------------------------------------ scan_with_lower --

TEST(ScanWithLower, PicksFirstArgmax) {
  EXPECT_EQ(scan_with_lower({5, 9, 9, 3}, 10), 1u);
}

TEST(ScanWithLower, EarlyStopHidesLateMaximum) {
  // LOWER=2: candidates 0,1 score below best at index 0; scan stops before
  // seeing the 100 at the end. This is the paper's Step 3c semantics.
  EXPECT_EQ(scan_with_lower({50, 10, 10, 100}, 2), 0u);
  // With a generous LOWER the late maximum is found.
  EXPECT_EQ(scan_with_lower({50, 10, 10, 100}, 3), 3u);
}

TEST(ScanWithLower, EqualScoresDoNotCountTowardStop) {
  // Scores equal to the best neither reset nor advance the counter.
  EXPECT_EQ(scan_with_lower({7, 7, 7, 7, 8}, 1), 4u);
}

TEST(ScanWithLower, EmptyAndSingle) {
  EXPECT_EQ(scan_with_lower({}, 3), 0u);
  EXPECT_EQ(scan_with_lower({4}, 3), 0u);
}

// --------------------------------------------------------- procedure 1  --

TEST(Procedure1, SolvesPaperExampleExactly) {
  const ResponseMatrix rm = paper_example();
  const BaselineSelection sel = procedure1_single(rm, {0, 1}, 10);
  // Expect the Table 3 solution: baselines 01 and 10, all pairs split.
  EXPECT_EQ(sel.baselines[0], rm.response(2, 0));
  EXPECT_EQ(sel.baselines[1], rm.response(1, 1));
  EXPECT_EQ(sel.indistinguished_pairs, 0u);
  EXPECT_EQ(sel.distinguished_pairs, 6u);
}

TEST(Procedure1, MatchesExplicitPairReferenceOnRandomizedCircuits) {
  // Differential test over randomized small synthetic circuits: the
  // partition-refinement implementation must agree with the paper-literal
  // explicit-pair-set reference for every test order and LOWER value —
  // including LOWER=1, where the early stop triggers on the first candidate
  // scoring strictly below the running best while ties keep scanning
  // (scan_with_lower's tie rule).
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    SynthProfile profile;
    profile.name = "diff";
    profile.inputs = 6;
    profile.outputs = 3;
    profile.gates = 30;
    profile.seed = seed;
    const Netlist nl = generate_synthetic(profile);
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(seed);
    tests.add_random(8, rng);
    const ResponseMatrix rm = build_response_matrix(nl, faults, tests);

    std::vector<std::size_t> order(rm.num_tests());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (int trial = 0; trial < 3; ++trial) {
      for (std::size_t lower : {1u, 2u, 5u, 100u}) {
        const auto fast = procedure1_single(rm, order, lower);
        const auto slow = procedure1_single_pairs(rm, order, lower);
        EXPECT_EQ(fast.baselines, slow.baselines)
            << "seed=" << seed << " lower=" << lower << " trial=" << trial;
        EXPECT_EQ(fast.indistinguished_pairs, slow.indistinguished_pairs);
        EXPECT_EQ(fast.distinguished_pairs, slow.distinguished_pairs);
      }
      rng.shuffle(order);
    }
  }
}

TEST(Procedure1, MatchesExplicitPairReferenceOnRandomTables) {
  // Dense random response tables tie candidate scores far more often than
  // circuit-derived matrices, hammering the LOWER tie path specifically.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.below(6);  // faults
    const std::size_t k = 2 + rng.below(4);  // tests
    const std::size_t m = 2 + rng.below(3);  // outputs
    std::vector<BitVec> ff;
    for (std::size_t j = 0; j < k; ++j) {
      BitVec v(m);
      for (std::size_t o = 0; o < m; ++o) v.set(o, rng.coin());
      ff.push_back(v);
    }
    std::vector<std::vector<BitVec>> faulty(n);
    for (auto& row : faulty)
      for (std::size_t j = 0; j < k; ++j) {
        BitVec v(m);
        for (std::size_t o = 0; o < m; ++o) v.set(o, rng.coin());
        row.push_back(v);
      }
    const ResponseMatrix rm = response_matrix_from_table(ff, faulty);
    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t lower : {1u, 2u, 3u}) {
      const auto fast = procedure1_single(rm, order, lower);
      const auto slow = procedure1_single_pairs(rm, order, lower);
      EXPECT_EQ(fast.baselines, slow.baselines)
          << "trial=" << trial << " lower=" << lower;
      EXPECT_EQ(fast.indistinguished_pairs, slow.indistinguished_pairs);
    }
  }
}

TEST(Procedure1, MatchesExplicitPairReferenceOnC17) {
  FaultList faults;
  const ResponseMatrix rm = c17_matrix(10, 31, &faults);
  std::vector<std::size_t> order(rm.num_tests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    for (std::size_t lower : {1u, 3u, 10u}) {
      const auto fast = procedure1_single(rm, order, lower);
      const auto slow = procedure1_single_pairs(rm, order, lower);
      EXPECT_EQ(fast.baselines, slow.baselines) << "lower=" << lower;
      EXPECT_EQ(fast.indistinguished_pairs, slow.indistinguished_pairs);
      EXPECT_EQ(fast.distinguished_pairs, slow.distinguished_pairs);
    }
    rng.shuffle(order);
  }
}

TEST(Procedure1, SelectionConsistentWithBuiltDictionary) {
  const ResponseMatrix rm = c17_matrix(8, 17);
  std::vector<std::size_t> order(rm.num_tests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto sel = procedure1_single(rm, order, 10);
  const auto sd = SameDifferentDictionary::build(rm, sel.baselines);
  EXPECT_EQ(sd.indistinguished_pairs(), sel.indistinguished_pairs);
}

TEST(Procedure1, RestartsNeverWorseThanPassFail) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ResponseMatrix rm = c17_matrix(9, seed);
    BaselineSelectionConfig cfg;
    cfg.calls1 = 5;
    cfg.seed = seed;
    const auto sel = run_procedure1(rm, cfg);
    const auto pf = PassFailDictionary::build(rm);
    EXPECT_LE(sel.indistinguished_pairs, pf.indistinguished_pairs());
  }
}

TEST(Procedure1, FaultFreeIdIsZeroOnSimulatedMatrices) {
  const ResponseMatrix rm = c17_matrix(10, 23);
  for (std::size_t j = 0; j < rm.num_tests(); ++j)
    EXPECT_EQ(rm.fault_free_id(j), 0u);
}

TEST(Procedure1, PassFailFallbackResolvesPermutedFaultFreeId) {
  // Regression for the fallback in run_procedure1 assuming ResponseId 0 is
  // the fault-free response. One test, six faults: two produce response A,
  // one produces B, three are fault-free — with ids permuted so the
  // fault-free signature sits at id 2, not 0.
  //
  // With LOWER=1 the greedy scan sees dist(A)=8 then dist(B)=5 and stops
  // before reaching the fault-free candidate, settling for a {2|4} split
  // (7 indistinguished pairs). The true pass/fail split {3|3} leaves only
  // 6, so the fallback must win — but only if it refines against the
  // *resolved* fault-free id. The buggy "== 0" refinement reproduces the
  // same {2|4} split and keeps 7.
  const Hash128 sig_a = slot_token(0, 1);
  const Hash128 sig_b = slot_token(1, 1);
  const ResponseMatrix permuted = response_matrix_from_ids(
      /*resp=*/{0, 0, 1, 2, 2, 2},
      /*signatures=*/{{sig_a, sig_b, Hash128{}}},
      /*num_faults=*/6, /*num_tests=*/1, /*num_outputs=*/2);
  ASSERT_EQ(permuted.fault_free_id(0), 2u);

  BaselineSelectionConfig cfg;
  cfg.lower = 1;
  cfg.calls1 = 0;  // no restarts: greedy pass + pass/fail fallback only
  const auto sel = run_procedure1(permuted, cfg);
  EXPECT_EQ(sel.indistinguished_pairs, 6u);
  EXPECT_EQ(sel.baselines[0], 2u);

  // The unpermuted encoding of the same matrix must land on the same count.
  const ResponseMatrix canonical = response_matrix_from_ids(
      {1, 1, 2, 0, 0, 0}, {{Hash128{}, sig_a, sig_b}}, 6, 1, 2);
  const auto canonical_sel = run_procedure1(canonical, cfg);
  EXPECT_EQ(canonical_sel.indistinguished_pairs, 6u);
  EXPECT_EQ(canonical_sel.baselines[0], 0u);
}

TEST(ResponseMatrixFromIds, ValidatesShape) {
  const Hash128 sig_a = slot_token(0, 1);
  // Wrong resp size.
  EXPECT_THROW(response_matrix_from_ids({0}, {{Hash128{}}}, 2, 1, 1),
               std::invalid_argument);
  // No fault-free signature.
  EXPECT_THROW(response_matrix_from_ids({0, 0}, {{sig_a}}, 2, 1, 1),
               std::invalid_argument);
  // Two fault-free signatures.
  EXPECT_THROW(
      response_matrix_from_ids({0, 1}, {{Hash128{}, Hash128{}}}, 2, 1, 1),
      std::invalid_argument);
  // Id out of range.
  EXPECT_THROW(response_matrix_from_ids({0, 3}, {{Hash128{}, sig_a}}, 2, 1, 1),
               std::invalid_argument);
}

TEST(Procedure1, TargetStopsEarly) {
  const ResponseMatrix rm = c17_matrix(16, 4);
  BaselineSelectionConfig cfg;
  cfg.calls1 = 100;
  cfg.target_indistinguished = Partition::pairs(rm.num_faults());  // trivial
  const auto sel = run_procedure1(rm, cfg);
  EXPECT_EQ(sel.calls_used, 1u);
}

TEST(Procedure1, OrderAffectsSelection) {
  // At least the machinery accepts arbitrary permutations; results must be
  // valid baseline ids in each test's candidate set.
  const ResponseMatrix rm = c17_matrix(12, 8);
  std::vector<std::size_t> order(rm.num_tests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::reverse(order.begin(), order.end());
  const auto sel = procedure1_single(rm, order, 10);
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    EXPECT_LT(sel.baselines[t], rm.num_distinct(t));
}

// --------------------------------------------------------- procedure 2  --

TEST(Procedure2, CountMatchesDictionaryBuild) {
  const ResponseMatrix rm = c17_matrix(10, 12);
  std::vector<ResponseId> baselines(rm.num_tests());
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    baselines[t] = rm.num_distinct(t) - 1;
  EXPECT_EQ(count_indistinguished(rm, baselines),
            SameDifferentDictionary::build(rm, baselines)
                .indistinguished_pairs());
}

TEST(Procedure2, PassFailStartOnPaperExampleIsALocalOptimum) {
  // From the pass/fail assignment (indistinguished = 1), every single
  // baseline replacement still leaves one duplicate row pair, so
  // Procedure 2 — a strict-improvement local search — makes no move. This
  // is exactly why the paper runs it after Procedure 1, not instead of it.
  const ResponseMatrix rm = paper_example();
  const Procedure2Result res = run_procedure2(rm, {0, 0});
  EXPECT_EQ(res.indistinguished_pairs, 1u);
  EXPECT_EQ(res.replacements, 0u);
  // Whereas from the Table-3/4/5 greedy starting point the assignment is
  // already perfect and Procedure 2 confirms it.
  const Procedure2Result from_p1 =
      run_procedure2(rm, {rm.response(2, 0), rm.response(1, 1)});
  EXPECT_EQ(from_p1.indistinguished_pairs, 0u);
}

TEST(Procedure2, NeverWorsens) {
  for (std::uint64_t seed : {3u, 14u, 15u}) {
    const ResponseMatrix rm = c17_matrix(10, seed);
    BaselineSelectionConfig cfg;
    cfg.calls1 = 2;
    cfg.seed = seed;
    const auto p1 = run_procedure1(rm, cfg);
    const auto p2 = run_procedure2(rm, p1.baselines);
    EXPECT_LE(p2.indistinguished_pairs, p1.indistinguished_pairs);
    EXPECT_EQ(count_indistinguished(rm, p2.baselines),
              p2.indistinguished_pairs);
  }
}

TEST(Procedure2, FixpointIsStable) {
  const ResponseMatrix rm = c17_matrix(10, 16);
  const auto first = run_procedure2(rm, std::vector<ResponseId>(10, 0));
  const auto second = run_procedure2(rm, first.baselines);
  EXPECT_EQ(second.indistinguished_pairs, first.indistinguished_pairs);
  EXPECT_EQ(second.replacements, 0u);
}

TEST(Procedure2, FixpointIsSingleSwapOptimal) {
  // After Procedure 2 terminates, *no* single baseline replacement can
  // strictly improve the count — verified by exhaustive enumeration.
  for (std::uint64_t seed : {21u, 22u}) {
    const ResponseMatrix rm = c17_matrix(8, seed);
    const auto p2 = run_procedure2(rm, std::vector<ResponseId>(8, 0));
    for (std::size_t j = 0; j < rm.num_tests(); ++j) {
      for (ResponseId z = 0; z < rm.num_distinct(j); ++z) {
        auto trial = p2.baselines;
        trial[j] = z;
        EXPECT_GE(count_indistinguished(rm, trial), p2.indistinguished_pairs)
            << "j=" << j << " z=" << z << " seed=" << seed;
      }
    }
  }
}

TEST(Procedure2, BaselineCountMismatchRejected) {
  const ResponseMatrix rm = paper_example();
  EXPECT_THROW(run_procedure2(rm, {0}), std::invalid_argument);
}

// The message of the std::invalid_argument fn throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Procedure2, ShortBaselineVectorRejected) {
  const ResponseMatrix rm = c17_matrix(6, 3);
  const std::vector<ResponseId> short_bl(rm.num_tests() - 1, 0);
  EXPECT_NE(invalid_argument_message(
                [&] { count_indistinguished(rm, short_bl); })
                .find("count_indistinguished"),
            std::string::npos);
  EXPECT_NE(
      invalid_argument_message([&] { run_procedure2(rm, short_bl); })
          .find("run_procedure2"),
      std::string::npos);
}

TEST(Procedure2, OutOfRangeBaselineIdRejected) {
  const ResponseMatrix rm = c17_matrix(6, 3);
  std::vector<ResponseId> bl(rm.num_tests(), 0);
  bl[4] = static_cast<ResponseId>(rm.num_distinct(4));  // one past the end
  const std::string id = "baseline id " + std::to_string(bl[4]);
  for (const std::string& msg :
       {invalid_argument_message([&] { count_indistinguished(rm, bl); }),
        invalid_argument_message([&] { run_procedure2(rm, bl); })}) {
    EXPECT_NE(msg.find("test 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find(id), std::string::npos) << msg;
  }
}

// The paper's Procedure 2 as written: for every test, try each candidate
// in ascending order, score it with an exact recount, and keep it when it
// strictly improves; same stop rules as run_procedure2.
Procedure2Result literal_procedure2(const ResponseMatrix& rm,
                                    std::vector<ResponseId> baselines,
                                    const Procedure2Config& config) {
  Procedure2Result res;
  res.baselines = std::move(baselines);
  std::uint64_t dup = count_indistinguished(rm, res.baselines);
  bool improved = true;
  while (improved && res.sweeps < config.max_sweeps &&
         dup > config.target_indistinguished) {
    improved = false;
    ++res.sweeps;
    for (std::size_t j = 0;
         j < rm.num_tests() && dup > config.target_indistinguished; ++j) {
      const ResponseId old_bl = res.baselines[j];
      for (ResponseId z = 0; z < rm.num_distinct(j); ++z) {
        std::vector<ResponseId> trial = res.baselines;
        trial[j] = z;
        const std::uint64_t count = count_indistinguished(rm, trial);
        if (count < dup) {
          dup = count;
          res.baselines[j] = z;
        }
      }
      if (res.baselines[j] != old_bl) {
        ++res.replacements;
        improved = true;
      }
    }
  }
  res.indistinguished_pairs = dup;
  return res;
}

// Runs Procedure 2 on one thread and on four (speculative parallel
// scoring) and checks both against the literal scan.
void expect_matches_literal(const ResponseMatrix& rm,
                            const std::vector<ResponseId>& initial,
                            const Procedure2Config& config,
                            const std::string& what) {
  const Procedure2Result slow = literal_procedure2(rm, initial, config);
  for (std::size_t threads : {1u, 4u}) {
    Procedure2Config threaded = config;
    threaded.num_threads = threads;
    const Procedure2Result fast = run_procedure2(rm, initial, threaded);
    const std::string where = what + " threads=" + std::to_string(threads);
    EXPECT_EQ(fast.baselines, slow.baselines) << where;
    EXPECT_EQ(fast.replacements, slow.replacements) << where;
    EXPECT_EQ(fast.sweeps, slow.sweeps) << where;
    EXPECT_EQ(fast.indistinguished_pairs, slow.indistinguished_pairs)
        << where;
  }
}

// Initial assignments worth starting from: fault-free, random, and
// Procedure 1's selection.
std::vector<std::vector<ResponseId>> initial_assignments(
    const ResponseMatrix& rm, Rng& rng) {
  std::vector<ResponseId> ff(rm.num_tests());
  std::vector<ResponseId> random(rm.num_tests());
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    ff[j] = rm.fault_free_id(j);
    random[j] = static_cast<ResponseId>(rng.below(rm.num_distinct(j)));
  }
  BaselineSelectionConfig cfg;
  cfg.calls1 = 2;
  cfg.num_threads = 1;
  return {ff, random, run_procedure1(rm, cfg).baselines};
}

// Stop-rule variants: unbounded, one sweep, and a target that is reached
// part-way through.
std::vector<Procedure2Config> stop_rules(const ResponseMatrix& rm,
                                         const std::vector<ResponseId>& bl) {
  Procedure2Config one_sweep;
  one_sweep.max_sweeps = 1;
  Procedure2Config target;
  target.target_indistinguished = count_indistinguished(rm, bl) / 2;
  return {Procedure2Config{}, one_sweep, target};
}

TEST(Procedure2, MatchesLiteralScanOnRandomIdTables) {
  // Dense random id tables tie candidate scores often; the fault-free
  // signature sits at a random id, so no test relies on id 0 meaning pass.
  Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.below(14);
    const std::size_t k = 1 + rng.below(6);
    std::vector<std::vector<Hash128>> sigs(k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t distinct = 1 + rng.below(5);
      for (std::size_t id = 0; id < distinct; ++id)
        sigs[j].push_back(slot_token(id, 1));
      sigs[j][rng.below(distinct)] = Hash128{};
    }
    std::vector<ResponseId> resp(n * k);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < k; ++j)
        resp[i * k + j] = static_cast<ResponseId>(rng.below(sigs[j].size()));
    const ResponseMatrix rm = response_matrix_from_ids(resp, sigs, n, k, 3);
    for (const auto& initial : initial_assignments(rm, rng))
      for (const Procedure2Config& config : stop_rules(rm, initial))
        expect_matches_literal(rm, initial, config,
                               "trial=" + std::to_string(trial));
  }
}

TEST(Procedure2, MatchesLiteralScanOnC17AndS27) {
  Rng rng(99);
  std::vector<ResponseMatrix> matrices = {c17_matrix(10, 41),
                                          c17_matrix(24, 42)};
  const Netlist s27 = full_scan(make_s27());
  const FaultList faults = collapsed_fault_list(s27).collapsed;
  for (std::size_t num_tests : {8u, 20u}) {
    TestSet tests(s27.num_inputs());
    tests.add_random(num_tests, rng);
    matrices.push_back(build_response_matrix(s27, faults, tests));
  }
  for (std::size_t m = 0; m < matrices.size(); ++m)
    for (const auto& initial : initial_assignments(matrices[m], rng))
      for (const Procedure2Config& config : stop_rules(matrices[m], initial))
        expect_matches_literal(matrices[m], initial, config,
                               "matrix=" + std::to_string(m));
}

// ------------------------------------------- full-response classes  --

// A response_matrix_from_ids table with heavy duplication: `distinct`
// random rows over `k` tests, each copied 1-6 times, plus a block of 1-4
// all-fault-free rows, in shuffled fault order. With `permute_ff` the
// fault-free signature sits at a random id of each test, else at id 0.
ResponseMatrix duplicated_table(Rng& rng, std::size_t distinct, std::size_t k,
                                bool permute_ff) {
  std::vector<std::vector<Hash128>> sigs(k);
  std::vector<ResponseId> ff(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t ids = 1 + rng.below(4);
    for (std::size_t id = 0; id < ids; ++id)
      sigs[j].push_back(slot_token(id, 1));
    ff[j] = permute_ff ? static_cast<ResponseId>(rng.below(ids)) : 0;
    sigs[j][ff[j]] = Hash128{};
  }
  std::vector<std::vector<ResponseId>> rows;
  for (std::size_t i = 0; i < distinct; ++i) {
    std::vector<ResponseId> row(k);
    for (std::size_t j = 0; j < k; ++j)
      row[j] = static_cast<ResponseId>(rng.below(sigs[j].size()));
    rows.insert(rows.end(), 1 + rng.below(6), row);
  }
  rows.insert(rows.end(), 1 + rng.below(4), ff);
  rng.shuffle(rows);
  std::vector<ResponseId> resp;
  for (const auto& row : rows) resp.insert(resp.end(), row.begin(), row.end());
  return response_matrix_from_ids(resp, sigs, rows.size(), k, 3);
}

bool same_row(const ResponseMatrix& rm, FaultId a, FaultId b) {
  for (std::size_t j = 0; j < rm.num_tests(); ++j)
    if (rm.response(a, j) != rm.response(b, j)) return false;
  return true;
}

// The class of every fault, found by comparing rows with the representatives.
std::vector<std::uint32_t> class_of_faults(const ResponseMatrix& rm,
                                           const ResponseClasses& classes) {
  std::vector<std::uint32_t> class_of(rm.num_faults());
  for (FaultId f = 0; f < rm.num_faults(); ++f)
    for (std::uint32_t e = 0; e < classes.size(); ++e)
      if (same_row(rm, f, classes.rep[e])) class_of[f] = e;
  return class_of;
}

TEST(ResponseClasses, GroupsIdenticalRowsExactly) {
  Rng rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    const ResponseMatrix rm = duplicated_table(
        rng, 1 + rng.below(8), 1 + rng.below(5), trial % 2 == 1);
    const ResponseClasses classes = response_classes(rm);
    ASSERT_EQ(classes.weight.size(), classes.size());
    std::vector<std::uint32_t> weight(classes.size(), 0);
    for (std::uint32_t e : class_of_faults(rm, classes)) ++weight[e];
    EXPECT_EQ(classes.weight, weight) << "trial=" << trial;
    EXPECT_EQ(classes.indistinguished_pairs(),
              FullDictionary::build(rm).indistinguished_pairs())
        << "trial=" << trial;
    for (std::size_t e = 0; e < classes.size(); ++e) {
      // The representative is the lowest fault with its row, and distinct
      // classes have distinct rows.
      for (FaultId f = 0; f < classes.rep[e]; ++f)
        EXPECT_FALSE(same_row(rm, f, classes.rep[e])) << "trial=" << trial;
      if (e > 0) {
        EXPECT_LT(classes.rep[e - 1], classes.rep[e]);
      }
    }
  }
}

TEST(CandidateScorer, WeightedClassesMatchExpandedRows) {
  // Scoring groups of classes with weights must equal scoring the groups
  // of faults those classes stand for, one unit row per fault.
  Rng rng(6160);
  for (int trial = 0; trial < 20; ++trial) {
    const ResponseMatrix rm =
        duplicated_table(rng, 2 + rng.below(8), 1 + rng.below(4), true);
    const ResponseClasses classes = response_classes(rm);
    const std::vector<std::uint32_t> class_of = class_of_faults(rm, classes);
    const ResponseClasses units = ResponseClasses::singletons(rm.num_faults());
    const std::size_t num_groups = 1 + rng.below(3);
    std::vector<std::uint32_t> group_of(classes.size());
    for (auto& g : group_of)
      g = static_cast<std::uint32_t>(rng.below(num_groups));
    for (std::size_t j = 0; j < rm.num_tests(); ++j) {
      CandidateScorer weighted(rm.column(j), classes, rm.num_distinct(j));
      CandidateScorer expanded(rm.column(j), units, rm.num_distinct(j));
      for (std::uint32_t g = 0; g < num_groups; ++g) {
        std::vector<std::uint32_t> class_members;
        std::vector<std::uint32_t> fault_members;
        for (std::uint32_t e = 0; e < classes.size(); ++e)
          if (group_of[e] == g) class_members.push_back(e);
        for (FaultId f = 0; f < rm.num_faults(); ++f)
          if (group_of[class_of[f]] == g) fault_members.push_back(f);
        // A group scores exactly when its members' responses differ.
        std::set<ResponseId> responses;
        for (FaultId f : fault_members) responses.insert(rm.response(f, j));
        const bool mixed = responses.size() >= 2;
        EXPECT_EQ(weighted.add_group(class_members), mixed);
        EXPECT_EQ(expanded.add_group(fault_members), mixed);
      }
      EXPECT_EQ(weighted.dist(), expanded.dist())
          << "trial=" << trial << " test=" << j;
    }
  }
}

TEST(CandidateScorer, EmptyAndUniformGroupsScoreNothing) {
  // One test, five faults with responses 0 0 1 1 2 (the fault-free
  // signature at id 0). Empty and single-response groups add nothing and
  // say so; a mixed group scores every candidate by w_z * (W - w_z).
  const ResponseMatrix rm = response_matrix_from_ids(
      /*resp=*/{0, 0, 1, 1, 2},
      /*signatures=*/{{Hash128{}, slot_token(0, 1), slot_token(1, 1)}},
      /*num_faults=*/5, /*num_tests=*/1, /*num_outputs=*/2);
  const ResponseClasses units = ResponseClasses::singletons(5);
  CandidateScorer scorer(rm.column(0), units, rm.num_distinct(0));
  const std::vector<std::uint64_t> zero(3, 0);
  EXPECT_FALSE(scorer.add_group({}));
  EXPECT_EQ(scorer.dist(), zero);
  const std::vector<std::uint32_t> lone = {4};
  const std::vector<std::uint32_t> same = {0, 1};
  const std::vector<std::uint32_t> same_late = {2, 3};
  EXPECT_FALSE(scorer.add_group(lone));
  EXPECT_FALSE(scorer.add_group(same));
  EXPECT_FALSE(scorer.add_group(same_late));
  EXPECT_EQ(scorer.dist(), zero);
  // Members 0, 1 share a response before the first different one: the
  // prefix still counts.
  const std::vector<std::uint32_t> mixed = {0, 1, 2, 4};
  EXPECT_TRUE(scorer.add_group(mixed));
  EXPECT_EQ(scorer.dist(), (std::vector<std::uint64_t>{2 * 2, 1 * 3, 1 * 3}));
  // Uniform groups after a scoring one leave its scores as they are.
  EXPECT_FALSE(scorer.add_group(same));
  EXPECT_EQ(scorer.dist(), (std::vector<std::uint64_t>{4, 3, 3}));
}

TEST(Procedure1, MatchesExplicitPairReferenceOnDuplicatedRows) {
  // Every distinct row copied 1-6 times plus a block of fault-free rows:
  // the weighted classes carry most of the pair counts. Half the tables
  // permute the fault-free id, and with few distinct rows most orders
  // reach tests after nothing can split, which keep the fault-free id.
  Rng rng(8080);
  for (int trial = 0; trial < 24; ++trial) {
    const ResponseMatrix rm = duplicated_table(
        rng, 1 + rng.below(7), 1 + rng.below(6), trial % 2 == 1);
    std::vector<std::size_t> order(rm.num_tests());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (int shuffle = 0; shuffle < 3; ++shuffle) {
      for (std::size_t lower : {1u, 2u, 10u}) {
        const auto fast = procedure1_single(rm, order, lower);
        const auto slow = procedure1_single_pairs(rm, order, lower);
        EXPECT_EQ(fast.baselines, slow.baselines)
            << "trial=" << trial << " lower=" << lower;
        EXPECT_EQ(fast.indistinguished_pairs, slow.indistinguished_pairs);
        EXPECT_EQ(fast.distinguished_pairs, slow.distinguished_pairs);
      }
      rng.shuffle(order);
    }
  }
}

TEST(Procedure1, TestsAfterNothingCanSplitKeepFaultFreeId) {
  // Test 0 splits {f0, f1} from {f2, f3}; the two pairs left have
  // identical full rows, so test 1 is reached with nothing to split and
  // keeps its fault-free response, which sits at id 1.
  const Hash128 sig_a = slot_token(0, 1);
  const Hash128 sig_x = slot_token(1, 1);
  const ResponseMatrix rm = response_matrix_from_ids(
      /*resp=*/{0, 0, 0, 0, 1, 0, 1, 0},
      /*signatures=*/{{Hash128{}, sig_a}, {sig_x, Hash128{}}},
      /*num_faults=*/4, /*num_tests=*/2, /*num_outputs=*/2);
  ASSERT_EQ(rm.fault_free_id(1), 1u);
  for (std::size_t lower : {1u, 10u}) {
    for (const auto& sel : {procedure1_single(rm, {0, 1}, lower),
                            procedure1_single_pairs(rm, {0, 1}, lower)}) {
      EXPECT_EQ(sel.baselines[1], 1u);
      EXPECT_EQ(sel.indistinguished_pairs, 2u);
      EXPECT_EQ(sel.distinguished_pairs, 4u);
    }
  }
}

TEST(Procedure2, MatchesLiteralScanOnDuplicatedRows) {
  Rng rng(9090);
  for (int trial = 0; trial < 24; ++trial) {
    const ResponseMatrix rm = duplicated_table(
        rng, 1 + rng.below(7), 1 + rng.below(6), trial % 2 == 1);
    for (const auto& initial : initial_assignments(rm, rng))
      for (const Procedure2Config& config : stop_rules(rm, initial))
        expect_matches_literal(rm, initial, config,
                               "trial=" + std::to_string(trial));
  }
}

// ------------------------------------------- pinned benchmark outputs  --

// FNV-1a over a baseline assignment: pins a whole selection in one number.
std::uint64_t baseline_digest(const std::vector<ResponseId>& baselines) {
  std::uint64_t h = 14695981039346656037ull;
  for (ResponseId b : baselines) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Procedure1And2, PinnedOnBenchmarkCircuits) {
  // Outputs of both procedures on two ISCAS-89 circuits, recorded before
  // the procedures were moved onto weighted full-response classes; every
  // implementation change must reproduce them at every thread count. The
  // setup mirrors perfbench's build workload: full scan, collapsed faults,
  // random patterns from Rng(1), target = the full dictionary's pairs.
  struct Pinned {
    const char* circuit;
    std::size_t patterns;
    std::size_t p1_calls;
    std::uint64_t p1_indistinguished;
    std::uint64_t p1_digest;
    std::size_t p2_sweeps;
    std::size_t p2_replacements;
    std::uint64_t p2_indistinguished;
    std::uint64_t p2_digest;
  };
  const Pinned pinned[] = {
      {"s1423", 96, 30, 479980, 6274089711681774129ull, 4, 45, 479899,
       14401763846531281025ull},
      {"s953", 200, 28, 108338, 11912547864788576520ull, 2, 1, 108337,
       12994192197464895877ull},
  };
  for (const Pinned& p : pinned) {
    const Netlist nl = full_scan(load_benchmark(p.circuit));
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(1);
    tests.add_random(p.patterns, rng);
    const ResponseMatrix rm = build_response_matrix(nl, faults, tests);
    const std::uint64_t total = Partition::pairs(rm.num_faults());
    const std::uint64_t full_pairs =
        FullDictionary::build(rm).indistinguished_pairs();
    for (std::size_t threads : {1u, 4u}) {
      const std::string what =
          std::string(p.circuit) + " threads=" + std::to_string(threads);
      BaselineSelectionConfig cfg;
      cfg.lower = 10;
      cfg.calls1 = 20;
      cfg.seed = 1;
      cfg.num_threads = threads;
      cfg.target_indistinguished = full_pairs;
      const BaselineSelection p1 = run_procedure1(rm, cfg);
      EXPECT_EQ(p1.calls_used, p.p1_calls) << what;
      EXPECT_EQ(p1.indistinguished_pairs, p.p1_indistinguished) << what;
      EXPECT_EQ(p1.distinguished_pairs, total - p.p1_indistinguished) << what;
      EXPECT_EQ(baseline_digest(p1.baselines), p.p1_digest) << what;

      Procedure2Config p2cfg;
      p2cfg.target_indistinguished = full_pairs;
      p2cfg.num_threads = threads;
      const Procedure2Result p2 = run_procedure2(rm, p1.baselines, p2cfg);
      EXPECT_EQ(p2.sweeps, p.p2_sweeps) << what;
      EXPECT_EQ(p2.replacements, p.p2_replacements) << what;
      EXPECT_EQ(p2.indistinguished_pairs, p.p2_indistinguished) << what;
      EXPECT_EQ(p2.distinguished_pairs, total - p.p2_indistinguished) << what;
      EXPECT_EQ(baseline_digest(p2.baselines), p.p2_digest) << what;

      // construct() runs the same chain and must reproduce it; it sets
      // both targets itself.
      cfg.target_indistinguished = 0;
      const Construction c = construct(rm, cfg, {.num_threads = threads});
      EXPECT_EQ(c.full_pairs, full_pairs) << what;
      EXPECT_EQ(c.proc1.calls_used, p.p1_calls) << what;
      EXPECT_EQ(c.proc1.indistinguished_pairs, p.p1_indistinguished) << what;
      EXPECT_EQ(baseline_digest(c.proc1.baselines), p.p1_digest) << what;
      EXPECT_EQ(c.proc2.sweeps, p.p2_sweeps) << what;
      EXPECT_EQ(c.proc2.replacements, p.p2_replacements) << what;
      EXPECT_EQ(c.proc2.indistinguished_pairs, p.p2_indistinguished) << what;
      EXPECT_EQ(baseline_digest(c.proc2.baselines), p.p2_digest) << what;
    }
  }
}

// -------------------------------------------------------------- hybrid  --

TEST(Hybrid, PreservesResolution) {
  const ResponseMatrix rm = c17_matrix(12, 19);
  BaselineSelectionConfig cfg;
  cfg.calls1 = 3;
  const auto p1 = run_procedure1(rm, cfg);
  const auto before = count_indistinguished(rm, p1.baselines);
  const auto hyb = hybridize_baselines(rm, p1.baselines);
  EXPECT_LE(hyb.indistinguished_pairs, before);
  EXPECT_EQ(count_indistinguished(rm, hyb.baselines),
            hyb.indistinguished_pairs);
  // Only reverted-to-fault-free baselines may differ.
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    if (hyb.baselines[t] != p1.baselines[t]) {
      EXPECT_EQ(hyb.baselines[t], 0u);
    }
  }
}

TEST(Hybrid, StoredBaselinesCounted) {
  const ResponseMatrix rm = paper_example();
  const auto hyb = hybridize_baselines(
      rm, {rm.response(2, 0), rm.response(1, 1)});
  std::size_t nonzero = 0;
  for (auto b : hyb.baselines) nonzero += b != 0 ? 1 : 0;
  EXPECT_EQ(hyb.stored_baselines, nonzero);
  // Size model: never more than the plain same/different size + flags.
  EXPECT_LE(hyb.size_bits,
            dictionary_sizes(2, 4, 2).same_different_bits + 2);
}

TEST(Hybrid, AllFaultFreeWhenPassFailIsOptimal) {
  // If every test's baseline is already fault-free, nothing changes.
  const ResponseMatrix rm = paper_example();
  const auto hyb = hybridize_baselines(rm, {0, 0});
  EXPECT_EQ(hyb.stored_baselines, 0u);
}

}  // namespace
}  // namespace sddict
