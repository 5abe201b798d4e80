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
    size_.clear();
    total_.clear();
    for (std::size_t e = 0; e < group_of_.size(); ++e) {
      const std::uint32_t g = index_.intern(sig[e]);
      if (g == size_.size()) {
        key_.push_back(sig[e]);
        size_.push_back(0);
        total_.push_back(0);
      }
      ++size_[g];
      total_[g] += weight_[e];
      group_of_[e] = g;
    }
    lay_out_members();
    build_key_index();
    joined_.assign(size_.size(), 0);
    stamp_ = 0;
    std::uint64_t pairs = 0;
    for (std::size_t w : total_) pairs += Partition::pairs(w);
    return pairs;
  }

  // Feeds the scorer every rest group of two or more rows for one test,
  // where bit_of(e) is row e's bit for the test and `tok` its token. A
  // row's rest signature is its signature without that bit, and the rows
  // of a group share their bit, so a group whose bit is set joins the
  // group whose signature is its own XOR tok, if there is one (its bit is
  // clear: the signatures differ in exactly that bit); every other group
  // is a rest group by itself. Returns the fault pairs the joins add to
  // group()'s count: W_g * W_h per joined pair.
  template <typename BitOf>
  std::uint64_t score_rest_groups(const Hash128& tok, BitOf&& bit_of,
                                  CandidateScorer* scorer) {
    ++stamp_;
    std::uint64_t added = 0;
    for (std::uint32_t e = 0; e < group_of_.size(); ++e) {
      if (!bit_of(e)) continue;
      const std::uint32_t g = group_of_[e];
      if (first(g) != e) continue;  // each group once, at its first row
      const std::uint32_t h = find(key_[g] ^ tok);
      if (h == kNone) continue;
      added += static_cast<std::uint64_t>(total_[g]) * total_[h];
      joined_[g] = joined_[h] = stamp_;
      both_.assign(members(g).begin(), members(g).end());
      both_.insert(both_.end(), members(h).begin(), members(h).end());
      scorer->add_group(both_);
    }
    for (std::uint32_t g : multi_)
      if (joined_[g] != stamp_) scorer->add_group(members(g));
    return added;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::span<const std::uint32_t> members(std::uint32_t g) const {
    return {members_.data() + start_[g], size_[g]};
  }
  std::uint32_t first(std::uint32_t g) const { return members_[start_[g]]; }

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
  // laid out like lay_out_members.
  void build_key_index() {
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
  std::vector<std::uint32_t> size_;      // group -> member rows
  std::vector<std::uint32_t> total_;     // group -> total weight
  std::vector<std::uint32_t> start_;     // group -> its range of members_
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> multi_;     // groups of two or more rows
  unsigned shift_ = 64;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> bucket_groups_;
  // Working state of score_rest_groups: joined_[g] == stamp_ marks a group
  // joined in the current call.
  std::vector<std::uint32_t> joined_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> both_;
};

// Same/different row signatures of `rows` rows under `baselines`, row e
// being fault fault_of(e)'s row; see row_signatures.
template <typename FaultOf>
std::vector<Hash128> signatures(const ResponseMatrix& rm,
                                const std::vector<ResponseId>& baselines,
                                std::size_t rows, FaultOf&& fault_of) {
  std::vector<Hash128> sig(rows);
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    const auto col = rm.column(j);
    const Hash128 tok = test_token(j);
    for (std::size_t e = 0; e < rows; ++e)
      if (col[fault_of(e)] != baselines[j]) sig[e] ^= tok;
  }
  return sig;
}

}  // namespace

std::vector<Hash128> row_signatures(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines) {
  return signatures(rm, baselines, rm.num_faults(),
                    [](std::size_t f) { return f; });
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
  std::vector<Hash128> sig = signatures(rm, res.baselines, m,
                                        [&](std::size_t e) { return rep[e]; });
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
  // is replaced, so a test costs one pass over the rows plus one lookup
  // per group whose bit is set.
  BudgetScope scope(config.budget);
  bool improved = true;
  while (improved && res.sweeps < config.max_sweeps &&
         dup > config.target_indistinguished && !scope.stop()) {
    improved = false;
    ++res.sweeps;
    for (std::size_t j = 0;
         j < k && dup > config.target_indistinguished && !scope.stop(); ++j) {
      const std::size_t num_candidates = rm.num_distinct(j);
      if (num_candidates < 2) continue;
      const auto col = rm.column(j);
      const Hash128 tok = test_token(j);
      const ResponseId old_bl = res.baselines[j];

      CandidateScorer scorer(col, classes, num_candidates);
      const std::uint64_t dup_base =
          dup + groups.score_rest_groups(
                    tok, [&](std::uint32_t e) { return col[rep[e]] != old_bl; },
                    &scorer);
      const std::vector<std::uint64_t>& gain = scorer.dist();

      // Keep the current baseline unless some candidate is strictly
      // better; otherwise take the lowest best one.
      ResponseId best_z = old_bl;
      for (ResponseId z = 0; z < num_candidates; ++z)
        if (gain[z] > gain[best_z]) best_z = z;
      if (best_z == old_bl) continue;

      // Apply: flip the two affected response groups' row signatures and
      // regroup the rows.
      dup = dup_base - gain[best_z];
      for (std::size_t e = 0; e < m; ++e)
        if (col[rep[e]] == old_bl || col[rep[e]] == best_z) sig[e] ^= tok;
      groups.group(sig);
      res.baselines[j] = best_z;
      ++res.replacements;
      improved = true;
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
