#include "core/multibaseline.h"

#include <algorithm>
#include <numeric>

#include "dict/partition.h"
#include "util/log.h"
#include "util/rng.h"

namespace sddict {
namespace {

// Additional-split scores for one more baseline of test `test`, given that
// members matching one of `chosen` are already split off. Only faults whose
// response matches no chosen baseline can still be separated by a new one.
std::vector<std::uint64_t> additional_dist(
    const ResponseMatrix& rm, std::size_t test, const Partition& partition,
    const std::vector<ResponseId>& chosen) {
  const std::size_t num_candidates = rm.num_distinct(test);
  std::vector<std::uint64_t> dist(num_candidates, 0);
  std::vector<std::uint32_t> cnt(num_candidates, 0);
  std::vector<bool> is_chosen(num_candidates, false);
  for (ResponseId z : chosen) is_chosen[z] = true;

  const auto col = rm.column(test);
  std::vector<ResponseId> touched;
  for (std::uint32_t c : partition.open_classes()) {
    const auto members = partition.members(c);
    touched.clear();
    std::uint32_t unmatched = 0;
    for (std::uint32_t f : members) {
      const ResponseId r = col[f];
      if (is_chosen[r]) continue;  // already split off by an earlier bit
      ++unmatched;
      if (cnt[r]++ == 0) touched.push_back(r);
    }
    for (ResponseId r : touched) {
      dist[r] += static_cast<std::uint64_t>(cnt[r]) * (unmatched - cnt[r]);
      cnt[r] = 0;
    }
  }
  for (ResponseId z : chosen) dist[z] = 0;  // cannot re-pick
  return dist;
}

// LOWER scan that skips already-chosen candidates.
ResponseId scan_skipping(const std::vector<std::uint64_t>& dist,
                         const std::vector<ResponseId>& chosen,
                         std::size_t lower) {
  std::vector<bool> skip(dist.size(), false);
  for (ResponseId z : chosen) skip[z] = true;
  ResponseId best_id = 0;
  bool have_best = false;
  std::uint64_t best = 0;
  std::size_t low_run = 0;
  for (ResponseId z = 0; z < dist.size(); ++z) {
    if (skip[z]) continue;
    if (!have_best) best_id = z;
    if (!have_best || dist[z] > best) {
      best = dist[z];
      best_id = z;
      have_best = true;
      low_run = 0;
    } else if (dist[z] < best) {
      if (++low_run == lower) break;
    }
  }
  return best_id;
}

}  // namespace

MultiBaselineSelection multi_baseline_single(
    const ResponseMatrix& rm, std::size_t rank,
    const std::vector<std::size_t>& order, std::size_t lower) {
  MultiBaselineSelection sel;
  sel.baselines.assign(rm.num_tests(), {});
  Partition part(rm.num_faults());
  const std::uint64_t total_pairs = Partition::pairs(rm.num_faults());

  for (std::size_t j : order) {
    std::vector<ResponseId>& chosen = sel.baselines[j];
    const std::size_t avail = rm.num_distinct(j);
    const std::size_t r = std::min(rank, avail);
    if (!part.fully_refined()) {
      for (std::size_t l = 0; l < r; ++l) {
        const auto dist = additional_dist(rm, j, part, chosen);
        chosen.push_back(scan_skipping(dist, chosen, lower));
      }
    } else {
      // Resolution complete: fill with the first ids (fault-free first) so
      // every test still carries `rank` baselines for the size model.
      for (ResponseId z = 0; chosen.size() < r && z < avail; ++z)
        chosen.push_back(z);
    }
    // Tests with fewer distinct responses than `rank` keep a shorter set;
    // the dictionary treats the missing slots as constant-1 bits.
    const auto col = rm.column(j);
    part.refine_with([&](std::uint32_t f) {
      const ResponseId resp = col[f];
      for (std::size_t l = 0; l < chosen.size(); ++l)
        if (resp == chosen[l]) return static_cast<std::uint32_t>(l);
      return static_cast<std::uint32_t>(rank);
    });
  }

  sel.indistinguished_pairs = part.indistinguished_pairs();
  sel.distinguished_pairs = total_pairs - sel.indistinguished_pairs;
  sel.calls_used = 1;
  return sel;
}

MultiBaselineSelection run_multi_baseline(
    const ResponseMatrix& rm, std::size_t rank,
    const BaselineSelectionConfig& config) {
  std::vector<std::size_t> order(rm.num_tests());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(config.seed);

  MultiBaselineSelection best = multi_baseline_single(rm, rank, order,
                                                      config.lower);
  std::size_t calls = 1;
  std::size_t no_improve = 0;
  while (no_improve < config.calls1 && calls < kMaxProcedure1Calls &&
         best.indistinguished_pairs > config.target_indistinguished) {
    rng.shuffle(order);
    MultiBaselineSelection cur =
        multi_baseline_single(rm, rank, order, config.lower);
    ++calls;
    if (cur.distinguished_pairs > best.distinguished_pairs) {
      best = std::move(cur);
      no_improve = 0;
    } else {
      ++no_improve;
    }
  }
  best.calls_used = calls;
  LOG_DEBUG << "multi-baseline(r=" << rank << "): " << calls << " calls, "
            << best.indistinguished_pairs << " pairs indistinguished";
  return best;
}

}  // namespace sddict
