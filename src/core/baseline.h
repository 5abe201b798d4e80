// Baseline-vector selection for the same/different fault dictionary —
// the paper's Procedure 1 (greedy selection with LOWER early stop and
// CALLS1 random-order restarts).
//
// Key implementation idea: the set P of not-yet-distinguished fault pairs
// is an equivalence relation, represented as a Partition of the fault set.
// For test t_j and candidate baseline z, the paper's dist(z) equals
//     sum over classes C of  c_z(C) * (|C| - c_z(C)),
// where c_z(C) is the number of members of C whose response under t_j is z.
// All candidate scores for one test are computed in a single O(rows) pass
// and the paper's LOWER scan is then replayed over them, reproducing
// Procedure 1 exactly at a fraction of the cost of explicit pair
// bookkeeping. (The explicit-pair reference implementation lives in
// core/pairset.h and is cross-checked in tests.)
//
// Faults with identical full response rows can never be split by any
// baseline, so the rows scored are one weighted row per full-response
// class (ResponseClasses): the partition refines class representatives,
// and a class of w faults counts as w faults in every score and pair count.
//
// A class whose members all share the test's response scores nothing and
// cannot split under any baseline, so the scorer reports it and the pass
// refines only the classes that scored, by the two-way (bool) split
// "response == chosen baseline" (Partition::refine_classes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dict/partition.h"
#include "sim/response.h"
#include "util/budget.h"

namespace sddict {

// Hard cap on total Procedure-1 invocations in one restart loop: a safety
// net behind calls1 and budget.max_restarts, far above any real run.
inline constexpr std::size_t kMaxProcedure1Calls = 100000;

struct BaselineSelectionConfig {
  std::size_t lower = 10;    // the paper's LOWER
  std::size_t calls1 = 100;  // the paper's CALLS1 (consecutive no-improve restarts)
  std::uint64_t seed = 1;
  // Stop restarting once this many indistinguished pairs is reached;
  // construct() sets the full-dictionary count, the floor under them all.
  std::uint64_t target_indistinguished = 0;
  // Worker threads for the restart loop; 0 = hardware concurrency. Restarts
  // are independent by construction — restart r shuffles the test order with
  // its own Rng(seed + r) — and are reduced sequentially by restart index
  // with the original stopping rules, so the selection, pair counts, and
  // calls_used are bit-identical at every thread count.
  std::size_t num_threads = 0;
  // Run budget with the strong anytime guarantee: a budgeted run returns
  // the incumbent after some restart index r with completed == false, and
  // that result (baselines, pair counts, calls_used) is bit-identical to an
  // unbudgeted run re-run with budget.max_restarts == r, at every thread
  // count. This holds because the sequential reduction polls the budget
  // before consuming each restart slot, and a restart skipped by a worker
  // implies the budget had already expired before the reduction got there —
  // so a skipped slot is never consumed. budget.max_restarts caps restarts
  // consumed (including the initial natural-order pass); the run can never
  // end below the pass/fail floor, which is computed unconditionally.
  RunBudget budget{};
};

struct BaselineSelection {
  // One per test. The pass/fail fallback stores each test's fault-free id
  // (rm.fault_free_id(j), which is 0 on simulated/table-built matrices).
  std::vector<ResponseId> baselines;
  std::uint64_t distinguished_pairs = 0;
  std::uint64_t indistinguished_pairs = 0;
  std::size_t calls_used = 0;  // Procedure-1 passes consumed by the reduction
  // False when a budget (deadline / cancellation / max_restarts, or the
  // kMaxProcedure1Calls safety net) ended the restart loop early; the
  // selection is still valid — it is the best of the passes consumed.
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
};

// The faults of a response matrix grouped by their full response row: one
// weighted row per class. Class e stands for weight[e] faults whose rows
// all equal the row of fault rep[e], its lowest member; classes are
// numbered in order of first appearance, so rep is ascending.
struct ResponseClasses {
  std::vector<std::uint32_t> rep;
  std::vector<std::uint32_t> weight;

  std::size_t size() const { return rep.size(); }
  // Fault pairs no dictionary can split: the sum over classes of
  // C(weight, 2), the full dictionary's indistinguished pairs.
  std::uint64_t indistinguished_pairs() const {
    std::uint64_t pairs = 0;
    for (std::uint32_t w : weight) pairs += Partition::pairs(w);
    return pairs;
  }
  // Every fault its own class of weight 1.
  static ResponseClasses singletons(std::size_t num_faults);
};

// Groups the faults of `rm` by full row exactly, by refining a partition
// column by column (no hashing of rows).
ResponseClasses response_classes(const ResponseMatrix& rm);

// Scores every candidate baseline z of one test over groups of classes:
//
//   dist(z) = sum over groups g of  w_zg * (W_g - w_zg),
//
// where W_g is the total weight of g and w_zg the weight of its members
// whose response under the test is z, so dist(z) is the number of
// same-group fault pairs the bit [response != z] separates. With the
// classes of the not-yet-distinguished relation as the groups this is the
// paper's dist(z) (Procedure 1); with the groups of rows that agree on
// every other dictionary column it is the pair gain Procedure 2 maximizes.
// Groups of one class, and groups whose classes all share the test's
// response, score nothing and may be left out; add_group reports them.
class CandidateScorer {
 public:
  // `column` holds the test's response id of every fault; group members
  // are indices into `classes`, which must outlive the scorer.
  CandidateScorer(std::span<const ResponseId> column,
                  const ResponseClasses& classes, std::size_t num_candidates)
      : column_(column),
        rep_(classes.rep),
        weight_(classes.weight),
        dist_(num_candidates, 0),
        count_(num_candidates, 0) {}

  // Adds one group's scores. A group that is empty or whose members all
  // share one response scores nothing and can never split; add_group
  // returns false for it after one read of the members' responses, and
  // true when it scored.
  bool add_group(std::span<const std::uint32_t> members) {
    if (members.empty()) return false;
    const ResponseId first = column_[rep_[members[0]]];
    std::size_t i = 1;
    while (i < members.size() && column_[rep_[members[i]]] == first) ++i;
    if (i == members.size()) return false;

    touched_.clear();
    touched_.push_back(first);
    std::uint32_t total = 0;
    for (std::size_t p = 0; p < i; ++p) total += weight_[members[p]];
    count_[first] = total;
    for (; i < members.size(); ++i) {
      const std::uint32_t e = members[i];
      const ResponseId r = column_[rep_[e]];
      const std::uint32_t w = weight_[e];
      total += w;
      if (count_[r] == 0) touched_.push_back(r);
      count_[r] += w;
    }
    for (ResponseId r : touched_) {
      dist_[r] += static_cast<std::uint64_t>(count_[r]) * (total - count_[r]);
      count_[r] = 0;
    }
    return true;
  }

  const std::vector<std::uint64_t>& dist() const { return dist_; }

 private:
  std::span<const ResponseId> column_;
  std::span<const std::uint32_t> rep_;
  std::span<const std::uint32_t> weight_;
  std::vector<std::uint64_t> dist_;
  std::vector<std::uint32_t> count_;  // zero between add_group calls
  std::vector<ResponseId> touched_;
};

// dist(z) for every candidate response of one test, given the current
// partition of the faults (the paper's Step 3a, all candidates at once).
std::vector<std::uint64_t> candidate_dist(const ResponseMatrix& rm,
                                          std::size_t test,
                                          const Partition& partition);

// The paper's LOWER early-stop scan over candidate scores in enumeration
// order: returns the first candidate attaining the best score among those
// the scan actually examines.
ResponseId scan_with_lower(const std::vector<std::uint64_t>& dist,
                           std::size_t lower);

// One pass of Procedure 1 over the tests in `order` (a permutation of
// 0..k-1). Tests reached once nothing can be split any more (every class
// of the refinement holds identical full rows) keep the fault-free
// response, rm.fault_free_id(j).
BaselineSelection procedure1_single(const ResponseMatrix& rm,
                                    const std::vector<std::size_t>& order,
                                    std::size_t lower);

// Procedure 1 with restarts: the first pass uses the natural test order,
// pass r > 0 a permutation drawn from Rng(seed + r); stops after `calls1`
// consecutive passes without improvement (or on reaching
// target_indistinguished / kMaxProcedure1Calls). Never returns a selection
// worse than the pass/fail dictionary (all-fault-free baselines). Ties
// between restarts go to the lowest restart index. Runs restarts on
// config.num_threads threads with a deterministic reduction — see
// BaselineSelectionConfig. `classes` must be response_classes(rm); the
// two-argument form computes them.
BaselineSelection run_procedure1(const ResponseMatrix& rm,
                                 const ResponseClasses& classes,
                                 const BaselineSelectionConfig& config);
BaselineSelection run_procedure1(const ResponseMatrix& rm,
                                 const BaselineSelectionConfig& config);

}  // namespace sddict
