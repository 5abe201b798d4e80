// Tests of the layered benchmark's own helpers (harness.h): percentiles
// against brute-force order statistics, the tail-percentile rule, and the
// query-stream generator's degradation contract and determinism.
//
//   $ python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "bmcirc/synth.h"
#include "dict/full_dict.h"
#include "fault/collapse.h"
#include "harness.h"
#include "sim/testset.h"
#include "util/rng.h"

namespace sddict::perfbench {
namespace {

// The definition, spelled out: the smallest sample x with
// |{s : s <= x}| >= p * n, found by scanning.
double brute_nearest_rank(const std::vector<double>& sorted, double p) {
  const double need = p * static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (static_cast<double>(i + 1) + 1e-9 >= need) return sorted[i];
  return sorted.back();
}

TEST(Percentiles, MatchExactOrderStatistics) {
  Rng rng(7);
  for (std::size_t n : {1u, 2u, 3u, 9u, 10u, 99u, 100u, 101u, 1000u, 1013u}) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng.below(1000));
    std::sort(v.begin(), v.end());
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
      EXPECT_EQ(nearest_rank(v, p), brute_nearest_rank(v, p))
          << "n=" << n << " p=" << p;
  }
}

TEST(Percentiles, RankArithmeticIsExact) {
  // 0.99 * 100 is 99.00000000000001 in floating point; the rank is 99.
  std::vector<double> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_EQ(nearest_rank(v, 0.99), 99.0);
  EXPECT_EQ(nearest_rank(v, 0.5), 50.0);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentiles, TailIsHighestWithTenSamplesBeyond) {
  for (std::size_t n = 0; n <= 30000; n += (n < 2100 ? 1 : 97)) {
    const double tail = tail_percentile(n);
    double want = 0;
    for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
      // Brute force: count the samples ranked strictly after the
      // nearest-rank position.
      std::size_t rank = 0;
      while (static_cast<double>(rank) + 1e-9 < p * static_cast<double>(n))
        ++rank;
      if (n >= rank + 10) want = p;
    }
    ASSERT_EQ(tail, want) << "n=" << n;
  }
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 0.5);
  EXPECT_EQ(tail_percentile(999), 0.9);
  EXPECT_EQ(tail_percentile(1000), 0.99);
  EXPECT_EQ(tail_percentile(10000), 0.999);
}

TEST(Percentiles, WindowedMediansShrugOffOneBadWindow) {
  // 9000 samples over 9 s: 9 windows of 1000. Window 4 is a stall.
  std::vector<Sample> s;
  for (int i = 0; i < 9000; ++i) {
    const double t = i / 1000.0;
    const double latency = (t >= 4 && t < 5) ? 500.0 : 1.0 + (i % 100) / 100.0;
    s.push_back({t, latency});
  }
  const WindowedStats w = windowed(s, 9.0);
  EXPECT_EQ(w.windows, 9u);
  EXPECT_EQ(w.samples, 9000u);
  EXPECT_DOUBLE_EQ(w.p50, 1.49);
  EXPECT_DOUBLE_EQ(w.p99, 1.98);
  EXPECT_EQ(w.rate, 1000.0);
  // Too few samples for two windows of 1000: one window, the plain
  // nearest-rank percentiles.
  const WindowedStats one = windowed({{0.1, 3}, {0.2, 1}, {0.3, 2}}, 1.0);
  EXPECT_EQ(one.windows, 1u);
  EXPECT_EQ(one.p50, 2.0);
  EXPECT_EQ(one.p99, 3.0);
  EXPECT_EQ(one.rate, 3.0);
  EXPECT_EQ(windowed({}, 1.0).windows, 0u);
}

// A small synthesized circuit's response matrix.
const ResponseMatrix& matrix() {
  static const ResponseMatrix rm = [] {
    SynthProfile profile;
    profile.name = "perfbench";
    profile.inputs = 10;
    profile.outputs = 4;
    profile.gates = 80;
    profile.seed = 0x5eed;
    const Netlist nl = generate_synthetic(profile);
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(3);
    tests.add_random(40, rng);
    return build_response_matrix(nl, faults, tests, {});
  }();
  return rm;
}

std::vector<Query> stream(std::uint64_t seed, std::size_t count = 400) {
  return make_query_stream(matrix(), count, {0.5, 0.3}, seed);
}

std::size_t changed_tests(const ResponseMatrix& rm, const Query& q) {
  std::size_t changed = 0;
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    if (q.observed[t] != Observed::of(rm.response(q.fault, t))) ++changed;
  return changed;
}

TEST(QueryStream, KindsAppearInExactProportion) {
  const std::vector<Query> qs = stream(1, 1000);
  std::size_t counts[3] = {0, 0, 0};
  for (const Query& q : qs) ++counts[static_cast<int>(q.kind)];
  EXPECT_EQ(counts[0], 500u);
  EXPECT_EQ(counts[1], 300u);
  EXPECT_EQ(counts[2], 200u);
}

TEST(QueryStream, CleanQueriesReportTheFaultsResponses) {
  const ResponseMatrix& rm = matrix();
  for (const Query& q : stream(2))
    if (q.kind == QueryKind::kClean) {
      EXPECT_EQ(changed_tests(rm, q), 0u);
    }
}

TEST(QueryStream, Drop1CarriesExactlyOneMissing) {
  const ResponseMatrix& rm = matrix();
  std::size_t seen = 0;
  for (const Query& q : stream(3)) {
    if (q.kind != QueryKind::kDrop1) continue;
    ++seen;
    std::size_t missing = 0;
    for (const Observed& o : q.observed) {
      if (o.status == ObservedStatus::kMissing) {
        ++missing;
      } else {
        EXPECT_EQ(o.status, ObservedStatus::kValue);
      }
    }
    EXPECT_EQ(missing, 1u);
    EXPECT_EQ(changed_tests(rm, q), 1u);
  }
  EXPECT_GT(seen, 0u);
}

TEST(QueryStream, Flip3ChangesThreeTestsToAnotherModeledResponse) {
  const ResponseMatrix& rm = matrix();
  std::size_t seen = 0;
  for (const Query& q : stream(4)) {
    if (q.kind != QueryKind::kFlip3) continue;
    ++seen;
    std::set<std::size_t> flipped;
    for (std::size_t t = 0; t < rm.num_tests(); ++t) {
      const ResponseId own = rm.response(q.fault, t);
      const Observed& o = q.observed[t];
      ASSERT_EQ(o.status, ObservedStatus::kValue);
      if (o.value == own) continue;
      flipped.insert(t);
      if (rm.num_distinct(t) > 1) {
        // Another response that some modeled fault produces.
        EXPECT_LT(o.value, rm.num_distinct(t)) << "test " << t;
      } else {
        EXPECT_EQ(o.value, kUnknownResponse) << "test " << t;
      }
    }
    EXPECT_EQ(flipped.size(), 3u);
  }
  EXPECT_GT(seen, 0u);
}

TEST(QueryStream, SameSeedSameStream) {
  const std::vector<Query> a = stream(11), b = stream(11), c = stream(12);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault, b[i].fault);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].observed, b[i].observed);
    EXPECT_EQ(a[i].frame, b[i].frame);
    differs = differs || a[i].frame != c[i].frame;
  }
  EXPECT_TRUE(differs) << "another seed should give another stream";
}

TEST(Replies, CanonicalFormDropsOnlyTiming) {
  EXPECT_EQ(canonical_reply({"diagnosis exact", "timing latency_ms=1 cache_hit=0",
                             "done"}),
            "diagnosis exact\ndone\n");
  EngineDiagnosis d;
  d.outcome = DiagnosisOutcome::kExactMatch;
  d.matches = {{4, 0, 2, 30}, {9, 2, 0, 30}};
  const std::string want = expected_reply(d);
  EXPECT_EQ(want.find("timing"), std::string::npos);
  EXPECT_NE(want.find("candidate 1 fault=4 mismatches=0\n"), std::string::npos);
  EXPECT_EQ(rank_or_miss(d, 9, 10), 2u);
  EXPECT_EQ(rank_or_miss(d, 5, 10), 11u);
  EXPECT_EQ(rank_or_miss(d, 9, 1), 2u);  // ranked past max_results
}

TEST(Spans, SelfTimeIsPerQueryDifference) {
  SpanLog log({"low", "high"}, 3);
  const double lows[3] = {10, 20, 30}, highs[3] = {15, 40, 33};
  for (std::size_t q = 0; q < 3; ++q) {
    log.record(0, q, 100, 100 + lows[q]);
    log.record(1, q, 200, 200 + highs[q]);
  }
  EXPECT_TRUE(log.complete(1));
  EXPECT_EQ(log.self_median_us(1, 0), 5.0);  // self times 5, 20, 3
}

}  // namespace
}  // namespace sddict::perfbench
