#include "core/procedure2.h"

#include <stdexcept>
#include <string>

#include "core/baseline.h"
#include "core/sigset.h"
#include "dict/partition.h"
#include "util/flat_interner.h"
#include "util/log.h"

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

// Faults grouped by a 128-bit signature. The index is reused across
// groupings, so regrouping allocates nothing once it has grown.
class SignatureGroups {
 public:
  explicit SignatureGroups(std::size_t n) : group_of_(n) {}

  // Groups faults 0..n-1 by sig_of(f); group ids follow first appearance.
  // Returns the pairs of faults that share a group.
  template <typename SigOf>
  std::uint64_t group(SigOf&& sig_of) {
    index_.clear();
    size_.clear();
    for (std::size_t f = 0; f < group_of_.size(); ++f) {
      const std::uint32_t g = index_.intern(sig_of(f));
      if (g == size_.size()) size_.push_back(0);
      ++size_[g];
      group_of_[f] = g;
    }
    std::uint64_t pairs = 0;
    for (std::uint32_t s : size_) pairs += Partition::pairs(s);
    return pairs;
  }

  // Feeds every group of two or more faults to the scorer. A counting pass
  // lays the groups out back to back, members in ascending fault order.
  void score(CandidateScorer* scorer) {
    start_.assign(size_.size() + 1, 0);
    for (std::size_t g = 0; g < size_.size(); ++g)
      start_[g + 1] = start_[g] + size_[g];
    members_.resize(group_of_.size());
    for (std::size_t f = 0; f < group_of_.size(); ++f)
      members_[start_[group_of_[f]]++] = static_cast<std::uint32_t>(f);
    // start_[g] now ends group g.
    std::uint32_t begin = 0;
    for (std::size_t g = 0; g < size_.size(); ++g) {
      if (size_[g] >= 2) scorer->add_group({members_.data() + begin, size_[g]});
      begin = start_[g];
    }
  }

 private:
  FlatInterner<Hash128, Hash128Hasher> index_;
  std::vector<std::uint32_t> group_of_;  // fault -> group
  std::vector<std::uint32_t> size_;      // group -> members
  std::vector<std::uint32_t> start_;
  std::vector<std::uint32_t> members_;
};

}  // namespace

std::vector<Hash128> row_signatures(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines) {
  std::vector<Hash128> sig(rm.num_faults());
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    const auto col = rm.column(j);
    const Hash128 tok = test_token(j);
    for (std::size_t f = 0; f < sig.size(); ++f)
      if (col[f] != baselines[j]) sig[f] ^= tok;
  }
  return sig;
}

std::uint64_t count_indistinguished(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines) {
  check_baselines(rm, baselines, "count_indistinguished");
  const std::vector<Hash128> sig = row_signatures(rm, baselines);
  return SignatureGroups(sig.size()).group(
      [&](std::size_t f) { return sig[f]; });
}

Procedure2Result run_procedure2(const ResponseMatrix& rm,
                                std::vector<ResponseId> initial_baselines,
                                const Procedure2Config& config) {
  check_baselines(rm, initial_baselines, "run_procedure2");
  const std::size_t n = rm.num_faults();
  const std::size_t k = rm.num_tests();

  Procedure2Result res;
  res.baselines = std::move(initial_baselines);
  std::vector<Hash128> sig = row_signatures(rm, res.baselines);
  SignatureGroups groups(n);
  std::uint64_t dup = groups.group([&](std::size_t f) { return sig[f]; });

  // Per-test scoring. With every other column fixed, two faults are
  // indistinguished exactly when they share a *rest* signature (row
  // signature with column j's contribution removed) and agree on column
  // j's bit. With s_g = |g| and c_zg the members of rest group g whose
  // response under t_j is z, baseline z leaves
  //
  //   dup_j(z) = sum_g C(c_zg, 2) + C(s_g - c_zg, 2)
  //            = dup_base - sum_g c_zg * (s_g - c_zg)
  //
  // pairs together, where dup_base = sum_g C(s_g, 2). The best baseline
  // therefore maximizes CandidateScorer's dist(z) over the rest groups.
  // Scanning Z_j with the paper's accept-if-better rule converges to that
  // argmax, which is what this computes directly.
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

      const std::uint64_t dup_base = groups.group([&](std::size_t f) {
        return col[f] != old_bl ? sig[f] ^ tok : sig[f];
      });
      CandidateScorer scorer(col, num_candidates);
      groups.score(&scorer);
      const std::vector<std::uint64_t>& gain = scorer.dist();

      // Keep the current baseline unless some candidate is strictly
      // better; otherwise take the lowest best one.
      ResponseId best_z = old_bl;
      for (ResponseId z = 0; z < num_candidates; ++z)
        if (gain[z] > gain[best_z]) best_z = z;
      if (best_z == old_bl) continue;

      // Apply: flip the two affected response groups' row signatures.
      dup = dup_base - gain[best_z];
      for (std::size_t f = 0; f < n; ++f)
        if (col[f] == old_bl || col[f] == best_z) sig[f] ^= tok;
      res.baselines[j] = best_z;
      ++res.replacements;
      improved = true;
    }
  }

  res.indistinguished_pairs = dup;
  res.distinguished_pairs = Partition::pairs(n) - dup;
  res.completed = !scope.stopped();
  res.stop_reason = scope.reason();
  LOG_DEBUG << "procedure2: " << res.replacements << " replacements over "
            << res.sweeps << " sweeps, " << dup << " pairs indistinguished";
  return res;
}

}  // namespace sddict
