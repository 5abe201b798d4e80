#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "diag/testerlog.h"
#include "dict/full_dict.h"
#include "net/protocol.h"
#include "serve/diagnosis_service.h"
#include "util/rng.h"

namespace sddict::perfbench {

namespace {

// ceil(p * n) as a 1-based rank in [1, n], computed without the float
// round-off that turns 0.99 * 100 into 99.00000000000001.
std::size_t rank_of(std::size_t n, double p) {
  const double exact = p * static_cast<double>(n);
  auto r = static_cast<std::size_t>(std::llround(exact));
  if (std::fabs(exact - static_cast<double>(r)) > 1e-9)
    r = static_cast<std::size_t>(std::ceil(exact));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  return sorted[rank_of(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0;
  for (const double p : {0.5, 0.9, 0.99, 0.999, 0.9999})
    if (samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.5);
}

WindowedStats windowed(const std::vector<Sample>& samples, double span_s,
                       std::size_t min_per_window, std::size_t max_windows) {
  WindowedStats out;
  out.samples = samples.size();
  if (samples.empty() || span_s <= 0) return out;
  const std::size_t k = std::clamp<std::size_t>(
      samples.size() / std::max<std::size_t>(min_per_window, 1), 1,
      std::max<std::size_t>(max_windows, 1));
  const double len = span_s / static_cast<double>(k);
  std::vector<std::vector<double>> win(k);
  for (const Sample& s : samples) {
    const auto w = static_cast<std::size_t>(std::max(0.0, s.sent_s) / len);
    win[std::min(w, k - 1)].push_back(s.latency);
  }
  std::vector<double> p50, p99, rate;
  for (std::vector<double>& v : win) {
    rate.push_back(static_cast<double>(v.size()) / len);
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    p50.push_back(nearest_rank(v, 0.5));
    p99.push_back(nearest_rank(v, 0.99));
  }
  out.p50 = median(std::move(p50));
  out.p99 = median(std::move(p99));
  out.rate = median(std::move(rate));
  out.windows = k;
  return out;
}

const char* query_kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::kClean: return "clean";
    case QueryKind::kDrop1: return "drop1";
    case QueryKind::kFlip3: return "flip3";
  }
  return "?";
}

std::vector<Query> make_query_stream(const ResponseMatrix& rm,
                                     std::size_t count, const QueryMix& mix,
                                     std::uint64_t seed) {
  const std::size_t n = rm.num_tests();
  if (rm.num_faults() == 0 || n < 3)
    throw std::invalid_argument("make_query_stream: need faults and >= 3 tests");
  Rng rng(seed);
  const auto share = [&](double s) {
    return static_cast<std::size_t>(std::llround(s * static_cast<double>(count)));
  };
  const std::size_t clean = std::min(count, share(mix.clean));
  const std::size_t drop1 = std::min(count - clean, share(mix.drop1));
  std::vector<QueryKind> kinds(count, QueryKind::kFlip3);
  std::fill_n(kinds.begin(), clean, QueryKind::kClean);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(clean), drop1,
              QueryKind::kDrop1);
  rng.shuffle(kinds);

  std::vector<Query> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query& q = out[i];
    q.kind = kinds[i];
    q.fault = static_cast<FaultId>(rng.below(rm.num_faults()));
    q.observed.resize(n);
    for (std::size_t t = 0; t < n; ++t)
      q.observed[t] = Observed::of(rm.response(q.fault, t));
    if (q.kind == QueryKind::kDrop1) {
      q.observed[rng.below(n)] = Observed::missing();
    } else if (q.kind == QueryKind::kFlip3) {
      std::vector<std::size_t> tests(n);
      for (std::size_t t = 0; t < n; ++t) tests[t] = t;
      for (std::size_t j = 0; j < 3; ++j) {  // partial Fisher-Yates
        std::swap(tests[j], tests[j + rng.below(n - j)]);
        const std::size_t t = tests[j];
        const ResponseId own = q.observed[t].value;
        const std::size_t distinct = rm.num_distinct(t);
        ResponseId other = kUnknownResponse;
        if (distinct > 1) {
          // Uniform over the distinct responses other than the fault's own.
          other = static_cast<ResponseId>(rng.below(distinct - 1));
          if (other >= own) ++other;
        }
        q.observed[t] = Observed::of(other);
      }
    }
    std::ostringstream os;
    write_testerlog(os, q.observed);
    q.frame = os.str();
  }
  return out;
}

std::string canonical_reply(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines)
    if (l.rfind("timing ", 0) != 0) out += l + "\n";
  return out;
}

std::string expected_reply(const EngineDiagnosis& d) {
  ServiceResponse r;
  r.diagnosis = d;
  std::ostringstream os;
  net::write_response(os, r, /*dropped=*/0);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return canonical_reply(lines);
}

Hash128 reply_digest(const std::string& canonical) {
  std::vector<std::uint64_t> words((canonical.size() + 7) / 8 + 1, 0);
  std::memcpy(words.data(), canonical.data(), canonical.size());
  words.back() = canonical.size();  // length-tagged: no padding collisions
  return hash_words(words.data(), words.size());
}

std::size_t rank_or_miss(const EngineDiagnosis& d, FaultId fault,
                         std::size_t max_results) {
  const std::size_t r = true_fault_rank(d.matches, fault);
  return r == 0 || r > max_results ? max_results + 1 : r;
}

SpanLog::SpanLog(std::vector<std::string> layers, std::size_t queries)
    : layers_(std::move(layers)),
      queries_(queries),
      spans_(layers_.size() * queries),
      set_(layers_.size() * queries, 0),
      epoch_us_(0) {
  epoch_us_ = now_us();
}

double SpanLog::now_us() const {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::micro>(t).count() - epoch_us_;
}

void SpanLog::record(std::size_t layer, std::size_t query, double start_us,
                     double end_us) {
  const std::size_t i = layer * queries_ + query;
  spans_[i] = Span{static_cast<std::uint32_t>(layer),
                   static_cast<std::uint32_t>(query), start_us, end_us};
  set_[i] = 1;
}

bool SpanLog::complete(std::size_t layer) const {
  return std::all_of(set_.begin() + static_cast<std::ptrdiff_t>(layer * queries_),
                     set_.begin() + static_cast<std::ptrdiff_t>((layer + 1) * queries_),
                     [](char c) { return c != 0; });
}

std::vector<double> SpanLog::durations(std::size_t layer) const {
  std::vector<double> out;
  for (std::size_t q = 0; q < queries_; ++q)
    if (set_[layer * queries_ + q])
      out.push_back(spans_[layer * queries_ + q].duration_us());
  return out;
}

double SpanLog::self_median_us(std::size_t layer, std::size_t below) const {
  if (!complete(layer) || !complete(below))
    throw std::logic_error("self time needs complete layers");
  std::vector<double> self(queries_);
  for (std::size_t q = 0; q < queries_; ++q)
    self[q] = spans_[layer * queries_ + q].duration_us() -
              spans_[below * queries_ + q].duration_us();
  return median(std::move(self));
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path);
  f << "layer,query,start_us,end_us\n";
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (set_[i])
      f << layers_[spans_[i].layer] << ',' << spans_[i].query << ','
        << spans_[i].start_us << ',' << spans_[i].end_us << '\n';
  if (!f) throw std::runtime_error("failed to write " + path);
}

}  // namespace sddict::perfbench
