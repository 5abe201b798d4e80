#include "core/pairset.h"

#include <vector>

#include "dict/partition.h"

namespace sddict {

BaselineSelection procedure1_single_pairs(const ResponseMatrix& rm,
                                          const std::vector<std::size_t>& order,
                                          std::size_t lower) {
  const std::size_t n = rm.num_faults();
  const std::size_t k = rm.num_tests();
  BaselineSelection sel;
  // Tests reached once P is empty keep the fault-free response.
  sel.baselines.resize(k);
  for (std::size_t j = 0; j < k; ++j) sel.baselines[j] = rm.fault_free_id(j);

  // Step 1: include in P every fault pair that some test distinguishes.
  // Pairs with identical full rows stay indistinguished whatever the
  // baselines; they are counted, not stored.
  auto same_row = [&](FaultId a, FaultId b) {
    for (std::size_t j = 0; j < k; ++j)
      if (rm.response(a, j) != rm.response(b, j)) return false;
    return true;
  };
  std::vector<std::pair<FaultId, FaultId>> pairs;
  std::uint64_t inseparable = 0;
  for (FaultId a = 0; a < n; ++a)
    for (FaultId b = a + 1; b < n; ++b) {
      if (same_row(a, b))
        ++inseparable;
      else
        pairs.push_back({a, b});
    }
  const std::uint64_t total_pairs = Partition::pairs(n);

  auto splits = [&](ResponseId z, std::size_t j, FaultId a, FaultId b) {
    const bool sa = rm.response(a, j) == z;
    const bool sb = rm.response(b, j) == z;
    return sa != sb;
  };

  for (std::size_t j : order) {
    if (pairs.empty()) break;
    // Steps 2-3: scan candidates in Z_j order with the LOWER rule, computing
    // dist(z) over the explicit pair set.
    const std::size_t num_candidates = rm.num_distinct(j);
    ResponseId best_id = 0;
    bool have_best = false;
    std::uint64_t best = 0;
    std::size_t low_run = 0;
    for (ResponseId z = 0; z < num_candidates; ++z) {
      std::uint64_t dist = 0;
      for (const auto& [a, b] : pairs)
        if (splits(z, j, a, b)) ++dist;
      if (!have_best || dist > best) {
        best = dist;
        best_id = z;
        have_best = true;
        low_run = 0;
      } else if (dist < best) {
        if (++low_run == lower) break;
      }
    }
    // Step 4: select and remove the pairs it distinguishes.
    sel.baselines[j] = best_id;
    std::vector<std::pair<FaultId, FaultId>> remaining;
    remaining.reserve(pairs.size());
    for (const auto& p : pairs)
      if (!splits(best_id, j, p.first, p.second)) remaining.push_back(p);
    pairs = std::move(remaining);
  }

  sel.indistinguished_pairs = inseparable + pairs.size();
  sel.distinguished_pairs = total_pairs - sel.indistinguished_pairs;
  sel.calls_used = 1;
  return sel;
}

}  // namespace sddict
