#include "core/procedure2.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/baseline.h"
#include "core/sigset.h"
#include "dict/partition.h"
#include "util/flat_interner.h"
#include "util/log.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace sddict {
namespace {

void check_baselines(const ResponseMatrix& rm,
                     const std::vector<ResponseId>& baselines,
                     const char* who) {
  if (baselines.size() != rm.num_tests())
    throw std::invalid_argument(
        std::string(who) + ": baseline count mismatch (" +
        std::to_string(baselines.size()) + " baselines for " +
        std::to_string(rm.num_tests()) + " tests)");
  for (std::size_t j = 0; j < baselines.size(); ++j)
    if (baselines[j] >= rm.num_distinct(j))
      throw std::invalid_argument(
          std::string(who) + ": baseline id " + std::to_string(baselines[j]) +
          " out of range for test " + std::to_string(j) + " (" +
          std::to_string(rm.num_distinct(j)) + " distinct responses)");
}

// Weighted rows grouped by their 128-bit signature; row e stands for
// weight[e] faults. Regrouping reuses every buffer, so it allocates nothing
// once grown.
class SignatureGroups {
 public:
  explicit SignatureGroups(std::span<const std::uint32_t> weight)
      : weight_(weight), group_of_(weight.size()) {}

  // Groups the rows by sig[e]; group ids follow first appearance. Returns
  // the fault pairs that share a group: the sum over groups of C(W, 2), W
  // the group's total weight, so a lone row of weight w >= 2 counts its
  // C(w, 2) pairs.
  std::uint64_t group(std::span<const Hash128> sig) {
    index_.clear();
    key_.clear();
    first_.clear();
    size_.clear();
    total_.clear();
    for (std::size_t e = 0; e < group_of_.size(); ++e) {
      const std::uint32_t g = index_.intern(sig[e]);
      if (g == size_.size()) {
        key_.push_back(sig[e]);
        first_.push_back(static_cast<std::uint32_t>(e));
        size_.push_back(0);
        total_.push_back(0);
      }
      ++size_[g];
      total_[g] += weight_[e];
      group_of_[e] = g;
    }
    lay_out_members();
    build_key_index();
    std::uint64_t pairs = 0;
    for (std::size_t w : total_) pairs += Partition::pairs(w);
    return pairs;
  }

  // Working state of one thread's score_rest_groups calls.
  struct RestScratch {
    // joined[g] == stamp marks group g as joined in the current call;
    // stamps only grow, so entries left by earlier groupings read as
    // unjoined.
    std::vector<std::uint32_t> joined;
    std::uint32_t stamp = 0;
    std::vector<std::uint32_t> both;
  };

  // Feeds the scorer every rest group of two or more rows for one test,
  // where bit_of(e) is row e's bit for the test and `tok` its token. A
  // row's rest signature is its signature without that bit, and the rows
  // of a group share their bit, so a group whose bit is set joins the
  // group whose signature is its own XOR tok, if there is one (its bit is
  // clear: the signatures differ in exactly that bit); every other group
  // is a rest group by itself. Returns the fault pairs the joins add to
  // group()'s count: W_g * W_h per joined pair. Reads the groups only, so
  // threads with their own scorer and scratch may call it concurrently.
  template <typename BitOf>
  std::uint64_t score_rest_groups(const Hash128& tok, BitOf&& bit_of,
                                  CandidateScorer* scorer,
                                  RestScratch* scratch) const {
    std::vector<std::uint32_t>& joined = scratch->joined;
    if (joined.size() < size_.size()) joined.resize(size_.size(), 0);
    if (++scratch->stamp == 0) {  // wrapped: old stamps would read as live
      std::fill(joined.begin(), joined.end(), 0);
      scratch->stamp = 1;
    }
    const std::uint32_t stamp = scratch->stamp;
    std::uint64_t added = 0;
    for (std::uint32_t g = 0; g < key_.size(); ++g) {
      if (!bit_of(first_[g])) continue;
      const std::uint32_t h = find(key_[g] ^ tok);
      if (h == kNone) continue;
      added += static_cast<std::uint64_t>(total_[g]) * total_[h];
      joined[g] = joined[h] = stamp;
      scratch->both.assign(members(g).begin(), members(g).end());
      scratch->both.insert(scratch->both.end(), members(h).begin(),
                           members(h).end());
      scorer->add_group(scratch->both);
    }
    for (std::uint32_t g : multi_)
      if (joined[g] != stamp) scorer->add_group(members(g));
    return added;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::span<const std::uint32_t> members(std::uint32_t g) const {
    return {members_.data() + start_[g], size_[g]};
  }

  // A counting pass lays the groups out back to back, members ascending,
  // and lists the groups of two or more rows. start_[g + 1] begins group g
  // until the scatter advances it to g's end, which begins group g + 1.
  void lay_out_members() {
    start_.assign(size_.size() + 2, 0);
    multi_.clear();
    for (std::uint32_t g = 0; g < size_.size(); ++g) {
      start_[g + 2] = start_[g + 1] + size_[g];
      if (size_[g] >= 2) multi_.push_back(g);
    }
    members_.resize(group_of_.size());
    for (std::size_t e = 0; e < group_of_.size(); ++e)
      members_[start_[group_of_[e] + 1]++] = static_cast<std::uint32_t>(e);
  }

  // find() looks a signature up without inserting it, which FlatInterner
  // cannot do: the groups are bucketed by the top bits of their
  // signature's hash, about half a group per bucket, by a counting pass
  // laid out like lay_out_members. Most lookups miss, so a bitmap of the
  // signatures' low bits, about one bit in sixteen set and small enough
  // for the L1 cache, turns most misses away before the buckets.
  void build_key_index() {
    filter_mask_ =
        std::bit_ceil(std::max<std::size_t>(64, 16 * key_.size())) - 1;
    filter_.assign((filter_mask_ + 1) / 64, 0);
    for (const Hash128& k : key_) {
      const std::uint64_t bit = k.lo & filter_mask_;
      filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
    const std::size_t buckets =
        std::bit_ceil(std::max<std::size_t>(16, 2 * key_.size()));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    bucket_start_.assign(buckets + 2, 0);
    for (const Hash128& k : key_) ++bucket_start_[bucket(k) + 2];
    for (std::size_t b = 2; b < buckets + 2; ++b)
      bucket_start_[b] += bucket_start_[b - 1];
    bucket_groups_.resize(key_.size());
    for (std::uint32_t g = 0; g < key_.size(); ++g)
      bucket_groups_[bucket_start_[bucket(key_[g]) + 1]++] = g;
  }

  // The group whose signature is `key`, or kNone.
  std::uint32_t find(const Hash128& key) const {
    const std::uint64_t bit = key.lo & filter_mask_;
    if ((filter_[bit / 64] >> (bit % 64) & 1) == 0) return kNone;
    const std::size_t b = bucket(key);
    for (std::uint32_t i = bucket_start_[b]; i < bucket_start_[b + 1]; ++i)
      if (key_[bucket_groups_[i]] == key) return bucket_groups_[i];
    return kNone;
  }

  std::size_t bucket(const Hash128& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash128Hasher{}(key)) *
         0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  std::span<const std::uint32_t> weight_;
  FlatInterner<Hash128, Hash128Hasher> index_;
  std::vector<std::uint32_t> group_of_;  // row -> group
  std::vector<Hash128> key_;             // group -> signature
  std::vector<std::uint32_t> first_;     // group -> its lowest row
  std::vector<std::uint32_t> size_;      // group -> member rows
  std::vector<std::uint32_t> total_;     // group -> total weight
  std::vector<std::uint32_t> start_;     // group -> its range of members_
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> multi_;     // groups of two or more rows
  unsigned shift_ = 64;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> bucket_groups_;
  std::vector<std::uint64_t> filter_;  // bit lo & filter_mask_ of each key
  std::uint64_t filter_mask_ = 0;
};

// Same/different row signatures under `baselines` of rows [begin, end),
// row e being fault fault_of(e)'s row, into sig[e]; see row_signatures.
template <typename FaultOf>
void sign_rows(const ResponseMatrix& rm,
               const std::vector<ResponseId>& baselines, std::size_t begin,
               std::size_t end, FaultOf&& fault_of, Hash128* sig) {
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    const auto col = rm.column(j);
    const Hash128 tok = test_token(j);
    for (std::size_t e = begin; e < end; ++e)
      if (col[fault_of(e)] != baselines[j]) sig[e] ^= tok;
  }
}

}  // namespace

std::vector<Hash128> row_signatures(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines) {
  std::vector<Hash128> sig(rm.num_faults());
  sign_rows(rm, baselines, 0, sig.size(), [](std::size_t f) { return f; },
            sig.data());
  return sig;
}

std::uint64_t count_indistinguished(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines) {
  check_baselines(rm, baselines, "count_indistinguished");
  const std::vector<Hash128> sig = row_signatures(rm, baselines);
  const std::vector<std::uint32_t> unit(sig.size(), 1);
  return SignatureGroups(unit).group(sig);
}

Procedure2Result run_procedure2(const ResponseMatrix& rm,
                                std::vector<ResponseId> initial_baselines,
                                const Procedure2Config& config) {
  return run_procedure2(rm, response_classes(rm), std::move(initial_baselines),
                        config);
}

Procedure2Result run_procedure2(const ResponseMatrix& rm,
                                const ResponseClasses& classes,
                                std::vector<ResponseId> initial_baselines,
                                const Procedure2Config& config) {
  check_baselines(rm, initial_baselines, "run_procedure2");
  const std::size_t k = rm.num_tests();

  // One weighted row per full-response class: faults with identical full
  // rows share every signature, so they always fall into the same group.
  const std::vector<std::uint32_t>& rep = classes.rep;
  const std::size_t m = classes.size();

  Procedure2Result res;
  res.baselines = std::move(initial_baselines);
  const std::size_t threads = ThreadPool::resolve(config.num_threads);
  ThreadPool pool(threads);
  std::vector<Hash128> sig(m);
  pool.parallel_for_chunks(0, m, threads, [&](std::size_t b, std::size_t e) {
    sign_rows(rm, res.baselines, b, e, [&](std::size_t r) { return rep[r]; },
              sig.data());
  });
  SignatureGroups groups(classes.weight);
  std::uint64_t dup = groups.group(sig);

  // Per-test scoring. With every other column fixed, two faults are
  // indistinguished exactly when they share a *rest* signature (row
  // signature with column j's contribution removed) and agree on column
  // j's bit. With W_g the weight of rest group g and w_zg the weight of
  // its rows whose response under t_j is z, baseline z leaves
  //
  //   dup_j(z) = sum_g C(w_zg, 2) + C(W_g - w_zg, 2)
  //            = dup_base - sum_g w_zg * (W_g - w_zg)
  //
  // pairs together, where dup_base = sum_g C(W_g, 2). The best baseline
  // therefore maximizes CandidateScorer's dist(z) over the rest groups.
  // Scanning Z_j with the paper's accept-if-better rule converges to that
  // argmax, which is what this computes directly. The rest groups are
  // derived from the signature groups, which change only when a baseline
  // is replaced, so a test costs one pass over the groups plus one lookup
  // per group whose bit is set.
  //
  // A test's scores depend on the groups alone, so the tests ahead are
  // scored speculatively, a block at a time on the pool, against the
  // current groups. The commit walks the block in test order with the
  // serial loop's stop checks and budget polls; a replacement changes the
  // groups, so scoring starts over from the next test. Every committed
  // score is therefore the one the serial loop computes, at every thread
  // count.
  struct Score {
    std::uint64_t added = 0;  // pairs the rest groups add to dup
    ResponseId best = 0;      // the baseline to keep or take
    std::uint64_t gain = 0;   // its score
  };
  using RestScratch = SignatureGroups::RestScratch;
  const auto score_test = [&](std::size_t j, RestScratch* scratch) {
    const std::size_t num_candidates = rm.num_distinct(j);
    const auto col = rm.column(j);
    const ResponseId old_bl = res.baselines[j];
    CandidateScorer scorer(col, classes, num_candidates);
    Score sc;
    sc.added = groups.score_rest_groups(
        test_token(j), [&](std::uint32_t e) { return col[rep[e]] != old_bl; },
        &scorer, scratch);
    // Keep the current baseline unless some candidate is strictly better;
    // otherwise take the lowest best one.
    const std::vector<std::uint64_t>& gain = scorer.dist();
    sc.best = old_bl;
    for (ResponseId z = 0; z < num_candidates; ++z)
      if (gain[z] > gain[sc.best]) sc.best = z;
    sc.gain = gain[sc.best];
    return sc;
  };

  std::vector<RestScratch> scratch(threads);
  // A block of a few tests per thread: a replacement discards the scores
  // after it in the block, and replacements are rare (15 of 600 test
  // visits on s9234 with 200 patterns).
  const std::size_t block = threads == 1 ? 1 : 2 * threads;
  std::vector<Score> scores(block);
  std::size_t scored_begin = 0;
  std::size_t scored_end = 0;  // scores[j - scored_begin] hold for these j
  const auto score_block = [&](std::size_t first) {
    scored_begin = first;
    scored_end = std::min(k, first + block);
    const std::size_t count = scored_end - scored_begin;
    pool.parallel_for(0, std::min(threads, count), [&](std::size_t w) {
      for (std::size_t i = w; i < count; i += threads)
        if (rm.num_distinct(first + i) >= 2)
          scores[i] = score_test(first + i, &scratch[w]);
    });
  };

  BudgetScope scope(config.budget);
  bool improved = true;
  while (improved && res.sweeps < config.max_sweeps &&
         dup > config.target_indistinguished && !scope.stop()) {
    improved = false;
    ++res.sweeps;
    scored_end = 0;
    for (std::size_t j = 0;
         j < k && dup > config.target_indistinguished && !scope.stop(); ++j) {
      if (rm.num_distinct(j) < 2) continue;
      if (j >= scored_end) score_block(j);
      const Score& sc = scores[j - scored_begin];
      const ResponseId old_bl = res.baselines[j];
      if (sc.best == old_bl) continue;

      // Apply: flip the two affected response groups' row signatures and
      // regroup the rows.
      const auto col = rm.column(j);
      const Hash128 tok = test_token(j);
      dup = dup + sc.added - sc.gain;
      for (std::size_t e = 0; e < m; ++e)
        if (col[rep[e]] == old_bl || col[rep[e]] == sc.best) sig[e] ^= tok;
      groups.group(sig);
      res.baselines[j] = sc.best;
      ++res.replacements;
      improved = true;
      scored_end = j + 1;  // the scores ahead were for the old groups
    }
  }

  res.indistinguished_pairs = dup;
  res.distinguished_pairs = Partition::pairs(rm.num_faults()) - dup;
  res.completed = !scope.stopped();
  res.stop_reason = scope.reason();
  LOG_DEBUG << "procedure2: " << res.replacements << " replacements over "
            << res.sweeps << " sweeps, " << dup << " pairs indistinguished";
  return res;
}

Construction construct(const ResponseMatrix& rm,
                       BaselineSelectionConfig baseline,
                       Procedure2Config proc2) {
  // Deadlines count from this call: each procedure gets what is left of
  // its budget when it starts.
  const BudgetScope clock1(baseline.budget);
  const BudgetScope clock2(proc2.budget);
  Construction c;
  Timer timer;
  const ResponseClasses classes = response_classes(rm);
  c.full_pairs = classes.indistinguished_pairs();
  baseline.target_indistinguished = c.full_pairs;
  proc2.target_indistinguished = c.full_pairs;
  baseline.budget.max_seconds = clock1.nested().max_seconds;
  c.proc1 = run_procedure1(rm, classes, baseline);
  c.proc1_s = timer.seconds();
  timer.reset();
  proc2.budget.max_seconds = clock2.nested().max_seconds;
  c.proc2 = run_procedure2(rm, classes, c.proc1.baselines, proc2);
  c.proc2_s = timer.seconds();
  return c;
}

}  // namespace sddict
