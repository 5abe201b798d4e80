// Helpers of the layered benchmark (layerbench.cpp), kept apart so
// harness_test.cpp can pin them down: exact order-statistic percentiles,
// the seeded query-stream generator, reply canonicalization, and the
// in-memory span log the traced run fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "diag/engine.h"
#include "sim/response.h"
#include "util/hash.h"

namespace sddict::perfbench {

// ---------------------------------------------------------- percentiles --

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least ceil(p * n) samples at or below it, p in (0, 1]. Exact
// order statistics, no interpolation. Requires a non-empty sample.
double nearest_rank(const std::vector<double>& sorted, double p);

// Number of samples strictly after the nearest-rank position of p.
std::size_t samples_beyond(std::size_t n, double p);

// The highest percentile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999 that
// still has at least `min_beyond` samples beyond it in a sample of n, or 0
// when not even the median qualifies.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

// Median of an unsorted sample (nearest rank); 0 for an empty one.
double median(std::vector<double> v);

// One completed operation: when it was issued (seconds since the
// measurement window opened) and how long it took.
struct Sample {
  double sent_s = 0;
  double latency = 0;
};

// Medians over equal-length windows of the measurement span. The span is
// cut into k = clamp(samples / min_per_window, 1, max_windows) windows, so
// every window's p99 keeps at least ten samples beyond it when
// min_per_window is 1000; each window gives a nearest-rank p50 and p99 and
// a completion rate (samples issued in it per second). A stall on a shared
// host then spoils one window instead of the run's tail.
struct WindowedStats {
  double p50 = 0, p99 = 0, rate = 0;
  std::size_t windows = 0, samples = 0;
};
WindowedStats windowed(const std::vector<Sample>& samples, double span_s,
                       std::size_t min_per_window = 1000,
                       std::size_t max_windows = 9);

// ---------------------------------------------------------- query stream --

enum class QueryKind : std::uint8_t { kClean = 0, kDrop1, kFlip3 };
const char* query_kind_name(QueryKind k);

// Shares of the three query kinds; they need not sum to exactly 1 (the
// last kind takes the remainder).
struct QueryMix {
  double clean = 1;
  double drop1 = 0;
};

struct Query {
  FaultId fault = 0;                // the injected fault
  QueryKind kind = QueryKind::kClean;
  std::vector<Observed> observed;   // what the tester reports
  std::string frame;                // the same, as a testerlog frame
};

// `count` queries drawn from `seed`. Each injects a uniformly drawn fault
// and reports its simulated responses (rm), then degrades them by kind:
//   clean  unchanged;
//   drop1  exactly one test recorded as kMissing;
//   flip3  exactly three distinct tests report another response id that
//          some modeled fault produces under that test, or
//          kUnknownResponse where the test has only the fault-free one.
// The kinds appear in exact proportion (rounded), in shuffled order. The
// same seed always yields the same stream.
std::vector<Query> make_query_stream(const ResponseMatrix& rm,
                                     std::size_t count, const QueryMix& mix,
                                     std::uint64_t seed);

// ---------------------------------------------------------- replies ------

// A reply's lines minus the volatile `timing` line, newline-joined.
std::string canonical_reply(const std::vector<std::string>& lines);

// What a correct server answers for a diagnosis, in canonical form:
// net::write_response of it, minus the timing line.
std::string expected_reply(const EngineDiagnosis& d);

// 128-bit digest of a canonical reply. Replies that list every tied
// candidate run to thousands of lines, so the reference answers are kept
// as digests rather than text.
Hash128 reply_digest(const std::string& canonical);

// 1-based rank of the injected fault; max_results + 1 when it is absent or
// ranked past max_results (ties within tolerance can list more candidates
// than max_results, and a fault tied with a thousand others is as good as
// not found).
std::size_t rank_or_miss(const EngineDiagnosis& d, FaultId fault,
                         std::size_t max_results);

// ---------------------------------------------------------- spans --------

// One timed call into a layer's entry point. Spans of one query share its
// stream index; the traced run replays the stream once per layer.
struct Span {
  std::uint32_t layer = 0;
  std::uint32_t query = 0;
  double start_us = 0;  // since the span log's epoch
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

// Per-layer durations indexed by query (one replay per layer), plus the
// raw spans for export. Filled from several threads through disjoint
// query slots only, so no locking.
class SpanLog {
 public:
  SpanLog(std::vector<std::string> layers, std::size_t queries);

  double now_us() const;
  void record(std::size_t layer, std::size_t query, double start_us,
              double end_us);

  bool complete(std::size_t layer) const;  // every query recorded
  // Durations of a layer's recorded spans.
  std::vector<double> durations(std::size_t layer) const;
  // Median over queries of (span at `layer` - span at `below`) for the same
  // query id: the layer's self time. Both layers must be complete.
  double self_median_us(std::size_t layer, std::size_t below) const;

  // Writes every recorded span as CSV (layer,query,start_us,end_us).
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> layers_;
  std::size_t queries_;
  std::vector<Span> spans_;  // [layer * queries + query]
  std::vector<char> set_;
  double epoch_us_;
};

}  // namespace sddict::perfbench
