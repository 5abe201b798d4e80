#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "bmcirc/embedded.h"
#include "dict/full_dict.h"
#include "dict/partition.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "sim/logicsim.h"
#include "util/rng.h"

namespace sddict {
namespace {

// The paper's worked example (Tables 1-5): four faults, two tests, two
// outputs. Row ff = 00 00; f0 = 10 11; f1 = 00 10; f2 = 01 10; f3 = 01 00.
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

// Baseline ids for the paper's Table 3 choice: z_bl,0 = 01, z_bl,1 = 10.
std::vector<ResponseId> table3_baselines(const ResponseMatrix& rm) {
  return {rm.response(2, 0), rm.response(1, 1)};
}

// ------------------------------------------------------------- partition --

TEST(Partition, StartsAsOneClass) {
  Partition p(5);
  EXPECT_EQ(p.num_classes(), 1u);
  EXPECT_EQ(p.indistinguished_pairs(), 10u);
  EXPECT_FALSE(p.fully_refined());
}

TEST(Partition, RefineSplitsAndCountsPairs) {
  Partition p(4);
  // Labels {0,0,1,1}: separates 2*2 = 4 pairs.
  EXPECT_EQ(p.refine({0, 0, 1, 1}), 4u);
  EXPECT_EQ(p.num_classes(), 2u);
  EXPECT_EQ(p.indistinguished_pairs(), 2u);
  // Further split one class.
  EXPECT_EQ(p.refine({0, 1, 2, 2}), 1u);
  EXPECT_EQ(p.indistinguished_pairs(), 1u);
  EXPECT_EQ(p.refine({7, 7, 7, 8}), 1u);
  EXPECT_TRUE(p.fully_refined());
  EXPECT_EQ(p.refine({0, 0, 0, 0}), 0u);
}

TEST(Partition, RefineNoopWhenLabelsEqual) {
  Partition p(4);
  EXPECT_EQ(p.refine({3, 3, 3, 3}), 0u);
  EXPECT_EQ(p.num_classes(), 1u);
}

TEST(Partition, ClassOfConsistentWithClasses) {
  Partition p(6);
  p.refine({0, 1, 0, 1, 2, 2});
  for (std::size_t c = 0; c < p.num_classes(); ++c)
    for (std::uint32_t e : p.members(c)) EXPECT_EQ(p.class_of(e), c);
}

TEST(Partition, PairsHelper) {
  EXPECT_EQ(Partition::pairs(0), 0u);
  EXPECT_EQ(Partition::pairs(1), 0u);
  EXPECT_EQ(Partition::pairs(2), 1u);
  EXPECT_EQ(Partition::pairs(100), 4950u);
}

TEST(Partition, EmptyPartition) {
  Partition p(0);
  EXPECT_EQ(p.num_classes(), 0u);
  EXPECT_TRUE(p.fully_refined());
  EXPECT_EQ(p.indistinguished_pairs(), 0u);
}

std::vector<std::uint32_t> members_of(const Partition& p, std::size_t c) {
  const auto m = p.members(c);
  return {m.begin(), m.end()};
}

TEST(Partition, SplitGroupsFollowFirstAppearance) {
  Partition p(6);
  // Groups by label: 5 -> {0, 2}, 3 -> {1, 4}, 9 -> {3, 5}. The first
  // member's group keeps class 0; the rest follow in first-appearance order.
  EXPECT_EQ(p.refine({5, 3, 5, 9, 3, 9}), 12u);
  ASSERT_EQ(p.num_classes(), 3u);
  EXPECT_EQ(members_of(p, 0), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(members_of(p, 1), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(members_of(p, 2), (std::vector<std::uint32_t>{3, 5}));
  // Only class 1 splits: its first member keeps id 1, the other member
  // becomes the appended class 3.
  EXPECT_EQ(p.refine({0, 8, 0, 0, 2, 0}), 1u);
  ASSERT_EQ(p.num_classes(), 4u);
  EXPECT_EQ(members_of(p, 1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(members_of(p, 3), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(p.class_of(4), 3u);
}

TEST(Partition, MembersKeepRelativeOrder) {
  Partition p(8);
  p.refine({1, 0, 1, 0, 1, 0, 1, 0});
  EXPECT_EQ(members_of(p, 0), (std::vector<std::uint32_t>{0, 2, 4, 6}));
  EXPECT_EQ(members_of(p, 1), (std::vector<std::uint32_t>{1, 3, 5, 7}));
  p.refine({0, 0, 1, 1, 0, 0, 1, 1});
  EXPECT_EQ(members_of(p, 0), (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(members_of(p, 1), (std::vector<std::uint32_t>{1, 5}));
  EXPECT_EQ(members_of(p, 2), (std::vector<std::uint32_t>{2, 6}));
  EXPECT_EQ(members_of(p, 3), (std::vector<std::uint32_t>{3, 7}));
}

// The documented semantics with one vector per class: every class, in id
// order, is grouped by label in first-appearance order; the first group
// keeps the id and the others are appended.
struct ReferencePartition {
  std::vector<std::vector<std::uint32_t>> classes;

  explicit ReferencePartition(std::size_t n) {
    if (n > 0) {
      classes.emplace_back(n);
      std::iota(classes[0].begin(), classes[0].end(), std::uint32_t{0});
    }
  }

  std::uint64_t refine(const std::vector<std::uint32_t>& labels) {
    std::uint64_t separated = 0;
    const std::size_t orig = classes.size();
    for (std::size_t c = 0; c < orig; ++c) {
      std::vector<std::uint32_t> keys;
      std::vector<std::vector<std::uint32_t>> groups;
      for (std::uint32_t e : classes[c]) {
        const auto it = std::find(keys.begin(), keys.end(), labels[e]);
        if (it == keys.end()) {
          keys.push_back(labels[e]);
          groups.push_back({e});
        } else {
          groups[static_cast<std::size_t>(it - keys.begin())].push_back(e);
        }
      }
      if (groups.size() < 2) continue;
      separated += Partition::pairs(classes[c].size());
      for (const auto& g : groups) separated -= Partition::pairs(g.size());
      classes[c] = groups[0];
      for (std::size_t g = 1; g < groups.size(); ++g)
        classes.push_back(groups[g]);
    }
    return separated;
  }
};

// Same class ids, members, class_of, open list and pair count.
void expect_same_partition(const Partition& a, const Partition& b,
                           const std::string& what) {
  ASSERT_EQ(a.num_classes(), b.num_classes()) << what;
  EXPECT_EQ(a.indistinguished_pairs(), b.indistinguished_pairs()) << what;
  for (std::size_t c = 0; c < a.num_classes(); ++c)
    EXPECT_EQ(members_of(a, c), members_of(b, c)) << what << " class " << c;
  for (std::size_t e = 0; e < a.num_elements(); ++e)
    EXPECT_EQ(a.class_of(e), b.class_of(e)) << what << " element " << e;
  EXPECT_EQ(std::vector<std::uint32_t>(a.open_classes().begin(),
                                       a.open_classes().end()),
            std::vector<std::uint32_t>(b.open_classes().begin(),
                                       b.open_classes().end()))
      << what;
}

TEST(Partition, MatchesLabelHistoryOracleOverManyRounds) {
  // Several rounds, every other one with two labels: the partition must
  // equal grouping by the whole label history (brute force), and its ids
  // and member order must match the one-vector-per-class reference. Two
  // more partitions follow the same labels: one takes the two-label rounds
  // through a bool labeler, one refines only the open classes whose labels
  // differ (refine_classes, bool on the two-label rounds); both must match
  // the uint32_t path exactly.
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.below(60);
    const std::uint32_t alphabet = 1 + static_cast<std::uint32_t>(rng.below(5));
    Partition p(n);
    Partition two_way(n);
    Partition subset(n);
    ReferencePartition ref(n);
    std::vector<std::vector<std::uint32_t>> history(n);
    for (int round = 0; round < 6; ++round) {
      const bool binary = round % 2 == 1;
      std::vector<std::uint32_t> labels(n);
      for (auto& l : labels)
        l = 1000u * static_cast<std::uint32_t>(
                        rng.below(binary ? 2 : alphabet)) + 7u;
      for (std::size_t e = 0; e < n; ++e) history[e].push_back(labels[e]);

      const std::uint64_t before = p.indistinguished_pairs();
      const std::uint64_t separated = p.refine(labels);
      EXPECT_EQ(separated, ref.refine(labels));
      EXPECT_EQ(p.indistinguished_pairs(), before - separated);

      const std::string what =
          "trial=" + std::to_string(trial) + " round=" + std::to_string(round);
      if (binary) {
        EXPECT_EQ(two_way.refine_with([&](std::uint32_t e) {
          return labels[e] == 1007u;
        }),
                  separated)
            << what;
      } else {
        EXPECT_EQ(two_way.refine(labels), separated) << what;
      }
      expect_same_partition(p, two_way, what + " bool labeler");

      std::vector<std::uint32_t> mixed;
      for (std::uint32_t c : subset.open_classes()) {
        const auto m = subset.members(c);
        if (std::any_of(m.begin(), m.end(), [&](std::uint32_t e) {
              return labels[e] != labels[m[0]];
            }))
          mixed.push_back(c);
      }
      // Procedure 1 combines both: refine_classes with a bool labeler.
      const std::uint64_t subset_separated =
          binary ? subset.refine_classes(mixed,
                                         [&](std::uint32_t e) {
                                           return labels[e] == 1007u;
                                         })
                 : subset.refine_classes(
                       mixed, [&](std::uint32_t e) { return labels[e]; });
      EXPECT_EQ(subset_separated, separated) << what;
      expect_same_partition(p, subset, what + " refine_classes");

      std::uint64_t oracle_pairs = 0;
      std::set<std::vector<std::uint32_t>> distinct;
      for (std::size_t a = 0; a < n; ++a) {
        distinct.insert(history[a]);
        for (std::size_t b = a + 1; b < n; ++b) {
          const bool together = history[a] == history[b];
          oracle_pairs += together;
          EXPECT_EQ(p.class_of(a) == p.class_of(b), together)
              << "trial=" << trial << " round=" << round;
        }
      }
      EXPECT_EQ(p.indistinguished_pairs(), oracle_pairs);
      ASSERT_EQ(p.num_classes(), distinct.size());
      ASSERT_EQ(p.num_classes(), ref.classes.size());
      EXPECT_EQ(p.fully_refined(), distinct.size() == n);
      std::vector<std::uint32_t> open;
      for (std::size_t c = 0; c < p.num_classes(); ++c) {
        EXPECT_EQ(members_of(p, c), ref.classes[c]);
        for (std::uint32_t e : p.members(c)) EXPECT_EQ(p.class_of(e), c);
        if (ref.classes[c].size() >= 2)
          open.push_back(static_cast<std::uint32_t>(c));
      }
      EXPECT_EQ(std::vector<std::uint32_t>(p.open_classes().begin(),
                                           p.open_classes().end()),
                open);
    }
  }
}

// ------------------------------------------------------ matrix layout  --

void expect_columns_match(const ResponseMatrix& rm) {
  std::vector<std::uint32_t> detections(rm.num_faults(), 0);
  std::vector<ResponseId> reference(rm.num_tests());
  for (std::size_t j = 0; j < rm.num_tests(); ++j)
    reference[j] = static_cast<ResponseId>(j % rm.num_distinct(j));
  const std::vector<BitVec> rows = rm.difference_rows(reference);
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    const auto col = rm.column(j);
    ASSERT_EQ(col.size(), rm.num_faults());
    for (FaultId f = 0; f < rm.num_faults(); ++f) {
      EXPECT_EQ(col[f], rm.response(f, j)) << "f=" << f << " j=" << j;
      EXPECT_EQ(rows[f].get(j), rm.response(f, j) != reference[j]);
      detections[f] += rm.detected(f, j);
    }
  }
  EXPECT_EQ(rm.detection_counts(), detections);
}

TEST(ResponseMatrixLayout, ColumnsMatchResponsesOnSimulatedMatrices) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(9);
  tests.add_random(70, rng);  // two pattern batches
  // Several threads exercise the chunk merge's id remap.
  for (std::size_t threads : {1u, 3u})
    expect_columns_match(
        build_response_matrix(nl, faults, tests, {.num_threads = threads}));
}

TEST(ResponseMatrixLayout, ColumnsMatchResponsesOnTableMatrices) {
  expect_columns_match(paper_example());
}

TEST(ResponseMatrixLayout, FromIdsTransposesFaultMajorInput) {
  Rng rng(4);
  const std::size_t n = 7;
  const std::size_t k = 5;
  std::vector<std::vector<Hash128>> sigs(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t distinct = 1 + j % 3;
    for (std::size_t id = 0; id < distinct; ++id)
      sigs[j].push_back(slot_token(id, 1));
    sigs[j][rng.below(distinct)] = Hash128{};  // fault-free id anywhere
  }
  std::vector<ResponseId> resp(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      resp[i * k + j] = static_cast<ResponseId>(rng.below(sigs[j].size()));
  const ResponseMatrix rm = response_matrix_from_ids(resp, sigs, n, k, 3);
  for (FaultId i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_EQ(rm.response(i, j), resp[i * k + j]);
  expect_columns_match(rm);
}

// ----------------------------------------------------------------- sizes --

TEST(Sizes, PaperFormulas) {
  const DictionarySizes s = dictionary_sizes(10, 100, 7);
  EXPECT_EQ(s.full_bits, 7000u);
  EXPECT_EQ(s.pass_fail_bits, 1000u);
  EXPECT_EQ(s.same_different_bits, 1070u);
}

TEST(Sizes, HybridBetweenPassFailAndSameDifferent) {
  const std::uint64_t k = 10, n = 100, m = 7;
  const auto s = dictionary_sizes(k, n, m);
  const auto h_none = hybrid_same_different_bits(k, n, m, 0);
  const auto h_all = hybrid_same_different_bits(k, n, m, k);
  EXPECT_EQ(h_none, s.pass_fail_bits + k);
  EXPECT_EQ(h_all, s.same_different_bits + k);
}

TEST(Sizes, KindNames) {
  EXPECT_STREQ(dictionary_kind_name(DictionaryKind::kFull), "full");
  EXPECT_STREQ(dictionary_kind_name(DictionaryKind::kPassFail), "pass/fail");
  EXPECT_STREQ(dictionary_kind_name(DictionaryKind::kSameDifferent),
               "same/different");
}

// ------------------------------------------------------- paper example  --

TEST(PaperExample, Table1FullDictionaryDistinguishesAll) {
  const ResponseMatrix rm = paper_example();
  const FullDictionary full = FullDictionary::build(rm);
  EXPECT_EQ(full.indistinguished_pairs(), 0u);
  EXPECT_EQ(full.size_bits(), 2u * 4u * 2u);
}

TEST(PaperExample, Table2PassFailLeavesF2F3) {
  const ResponseMatrix rm = paper_example();
  const PassFailDictionary pf = PassFailDictionary::build(rm);
  // Bits from Table 2: f0=11, f1=01, f2=11, f3=10... mapping: b=1 iff
  // detected. f0: t0 yes, t1 yes. f1: t0 no, t1 yes. f2: yes/yes. f3:
  // yes/no.
  EXPECT_EQ(pf.row(0).to_string(), "11");
  EXPECT_EQ(pf.row(1).to_string(), "01");
  EXPECT_EQ(pf.row(2).to_string(), "11");
  EXPECT_EQ(pf.row(3).to_string(), "10");
  // Exactly one indistinguished pair: (f0, f2).
  EXPECT_EQ(pf.indistinguished_pairs(), 1u);
  EXPECT_EQ(pf.size_bits(), 8u);
}

TEST(PaperExample, Table3SameDifferentDistinguishesAll) {
  const ResponseMatrix rm = paper_example();
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm, table3_baselines(rm));
  // Table 3 rows: f0=11, f1=10, f2=00, f3=01.
  EXPECT_EQ(sd.row(0).to_string(), "11");
  EXPECT_EQ(sd.row(1).to_string(), "10");
  EXPECT_EQ(sd.row(2).to_string(), "00");
  EXPECT_EQ(sd.row(3).to_string(), "01");
  EXPECT_EQ(sd.indistinguished_pairs(), 0u);
  EXPECT_EQ(sd.size_bits(), 2u * (4u + 2u));
}

TEST(PaperExample, SameDifferentWithFaultFreeBaselinesEqualsPassFail) {
  const ResponseMatrix rm = paper_example();
  const PassFailDictionary pf = PassFailDictionary::build(rm);
  const SameDifferentDictionary sd = SameDifferentDictionary::build(rm, {0, 0});
  for (FaultId f = 0; f < 4; ++f) EXPECT_EQ(sd.row(f), pf.row(f));
  EXPECT_EQ(sd.indistinguished_pairs(), pf.indistinguished_pairs());
  EXPECT_EQ(sd.num_nontrivial_baselines(), 0u);
}

TEST(PaperExample, BadBaselineDistinguishesNothing) {
  // A baseline no fault produces would set every bit to 1; our builder only
  // accepts ids in Z_j, which is exactly the paper's point that candidates
  // outside Z_j are useless.
  const ResponseMatrix rm = paper_example();
  EXPECT_THROW(SameDifferentDictionary::build(rm, {99, 0}),
               std::invalid_argument);
}

// ------------------------------------------------- dictionaries on c17  --

struct C17Fixture {
  Netlist nl = make_c17();
  FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests;
  ResponseMatrix rm;
  C17Fixture() : tests(5) {
    Rng rng(21);
    tests.add_random(12, rng);
    rm = build_response_matrix(nl, faults, tests);
  }
};

TEST(Dictionaries, ResolutionOrderingOnC17) {
  C17Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  const auto pf = PassFailDictionary::build(fx.rm);
  // Any baseline assignment is at least as coarse as the full dictionary.
  std::vector<ResponseId> some_baselines(fx.tests.size(), 0);
  for (std::size_t t = 0; t < fx.tests.size(); ++t)
    some_baselines[t] = fx.rm.num_distinct(t) > 1 ? 1 : 0;
  const auto sd = SameDifferentDictionary::build(fx.rm, some_baselines);
  EXPECT_LE(full.indistinguished_pairs(), sd.indistinguished_pairs());
  EXPECT_LE(full.indistinguished_pairs(), pf.indistinguished_pairs());
}

TEST(Dictionaries, DiagnoseExactMatchRanksFirst) {
  C17Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  // Use fault 3's own row as the observation.
  std::vector<ResponseId> observed(fx.tests.size());
  for (std::size_t t = 0; t < fx.tests.size(); ++t)
    observed[t] = fx.rm.response(3, t);
  const auto matches = full.diagnose(observed, 5);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].mismatches, 0u);
  // Fault 3 must be among the zero-mismatch candidates.
  bool found = false;
  for (const auto& m : matches)
    if (m.fault == 3 && m.mismatches == 0) found = true;
  EXPECT_TRUE(found);
}

TEST(Dictionaries, UnknownResponseMismatchesEveryone) {
  C17Fixture fx;
  const auto full = FullDictionary::build(fx.rm);
  std::vector<ResponseId> observed(fx.tests.size(), kUnknownResponse);
  const auto matches = full.diagnose(observed, 3);
  for (const auto& m : matches) EXPECT_EQ(m.mismatches, fx.tests.size());
}

TEST(Dictionaries, PassFailEncodeMatchesRows) {
  C17Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  for (FaultId f = 0; f < fx.faults.size(); ++f) {
    std::vector<ResponseId> observed(fx.tests.size());
    for (std::size_t t = 0; t < fx.tests.size(); ++t)
      observed[t] = fx.rm.response(f, t);
    EXPECT_EQ(pf.encode(observed), pf.row(f));
  }
}

TEST(Dictionaries, SameDiffEncodeMatchesRows) {
  C17Fixture fx;
  std::vector<ResponseId> baselines(fx.tests.size(), 0);
  for (std::size_t t = 0; t < fx.tests.size(); ++t)
    baselines[t] = fx.rm.num_distinct(t) - 1;
  const auto sd = SameDifferentDictionary::build(fx.rm, baselines);
  for (FaultId f = 0; f < fx.faults.size(); ++f) {
    std::vector<ResponseId> observed(fx.tests.size());
    for (std::size_t t = 0; t < fx.tests.size(); ++t)
      observed[t] = fx.rm.response(f, t);
    EXPECT_EQ(sd.encode(observed), sd.row(f));
  }
}

TEST(Dictionaries, DiagnoseHammingRanking) {
  C17Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  // Flip one bit of fault 0's signature: fault 0 should rank with exactly
  // one mismatch.
  BitVec obs = pf.row(0);
  obs.flip(0);
  const auto matches = pf.diagnose(obs, fx.faults.size());
  bool seen_f0 = false;
  for (const auto& m : matches)
    if (m.fault == 0) {
      EXPECT_EQ(m.mismatches, 1u);
      seen_f0 = true;
    }
  EXPECT_TRUE(seen_f0);
  // Ranking is non-decreasing.
  for (std::size_t i = 1; i < matches.size(); ++i)
    EXPECT_LE(matches[i - 1].mismatches, matches[i].mismatches);
}

TEST(Dictionaries, PartitionMatchesBruteForceRowComparison) {
  C17Fixture fx;
  const auto pf = PassFailDictionary::build(fx.rm);
  std::uint64_t brute = 0;
  for (FaultId a = 0; a < fx.faults.size(); ++a)
    for (FaultId b = a + 1; b < fx.faults.size(); ++b)
      if (pf.row(a) == pf.row(b)) ++brute;
  EXPECT_EQ(pf.indistinguished_pairs(), brute);
}

// rank_matches' counting pass against a comparison sort on (mismatches,
// fault id): candidate lists in ascending fault order, as every caller
// builds them, with gaps in the fault ids, mass ties, a count of 0 and
// large counts, truncated at every interesting max_results.
TEST(Dictionaries, RankMatchesEqualsSortByCountThenFault) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<DiagnosisMatch> all;
    const std::size_t n = rng.below(300);
    const std::uint32_t spread = 1 + static_cast<std::uint32_t>(rng.below(
                                         iter % 2 == 0 ? 4 : 2000));
    FaultId f = 0;
    for (std::size_t i = 0; i < n; ++i) {
      f += 1 + static_cast<FaultId>(rng.below(3));
      all.push_back({f, static_cast<std::uint32_t>(rng.below(spread)), 0, 7});
    }
    std::vector<DiagnosisMatch> sorted = all;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.mismatches != b.mismatches ? a.mismatches < b.mismatches
                                          : a.fault < b.fault;
    });
    for (const std::size_t max_results :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{10}, n,
          n + 5}) {
      const std::vector<DiagnosisMatch> got = rank_matches(all, max_results);
      ASSERT_EQ(got.size(), std::min(n, max_results));
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].fault, sorted[i].fault) << iter << " #" << i;
        EXPECT_EQ(got[i].mismatches, sorted[i].mismatches) << iter << " #" << i;
        EXPECT_EQ(got[i].effective_tests, 7u);
      }
    }
  }
}

TEST(FromRows, WidthValidated) {
  EXPECT_THROW(
      PassFailDictionary::from_rows({BitVec::from_string("01")}, 3, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace sddict
