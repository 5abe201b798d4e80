// Session-level diagnoser: multi-observation, multi-fault diagnosis on
// top of the single-observation engine (diag/engine.h).
//
// A session is several applications of the test set to one die. The
// engine folds the runs into consensus evidence (session/evidence.h),
// ranks the consensus through the existing staged engine — a single-run
// clean session is bit-identical to diagnose_observed() — and then, for
// the multi-fault question the single-fault model cannot answer, searches
// for every *minimal-cardinality* set of modeled faults whose detection
// sets jointly explain the consensus failures:
//
//   * candidate scoring runs on bit-packed per-fault detection rows
//     through the word-parallel kernels (store/kernels.h);
//   * the search is branch-and-bound set cover, seeded with a greedy
//     cover as the incumbent upper bound, expanding candidates in
//     coverage-gain order with the Pomeranz/Reddy accidental-detection
//     index (a fault's detection count) as the tiebreak — low-AD faults
//     are harder to implicate by accident, so they are tried first;
//   * the search is RunBudget-bounded and anytime: on expiry the greedy
//     incumbent (a valid, possibly non-minimal cover) is still reported,
//     with completed == false;
//   * exclusion branching enumerates each cover exactly once, so a
//     completed search reports ALL covers of the minimal cardinality as
//     ranked ambiguity groups, each with a confidence derived from
//     cross-run agreement: the weighted fraction of concrete evidence
//     (weights = fraction of runs backing each consensus reading) the
//     group's joint prediction gets right.
//
// Detection bits are the fail rows of passfail_rows() (diag/engine.h),
// the rows the staged engine's projection stages run on: definite "this
// fault fails this test" bits only, so a same/different row with a
// non-fault-free baseline contributes its bit-0 ("matches the faulty
// baseline", hence fails) positions and nothing speculative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "diag/engine.h"
#include "session/evidence.h"
#include "util/budget.h"

namespace sddict {

class SignatureStore;

struct SessionOptions {
  // Options of the single-fault consensus ranking (staged chain).
  EngineOptions engine{};
  // Largest cover cardinality the search considers.
  std::size_t max_cover = 8;
  // Cap on reported ambiguity groups; more minimal covers than this sets
  // groups_truncated instead of growing the reply without bound.
  std::size_t max_groups = 16;
  // Bounds the cover search; anytime, never throws on expiry.
  RunBudget budget{};
};

// One minimal-cardinality explanation of the consensus failures.
struct AmbiguityGroup {
  std::vector<FaultId> faults;  // ascending
  // Consensus-pass tests this fault set predicts failing (soft evidence
  // against the group; covers never leave a consensus failure uncovered).
  std::uint32_t conflicts = 0;
  // Summed accidental-detection index of the members.
  std::uint64_t ad_sum = 0;
  // Agreement-weighted fraction of concrete evidence the group predicts
  // correctly; 1.0 for a conflict-free cover of a clean session.
  double confidence = 0.0;
};

struct SessionDiagnosis {
  // The existing staged engine on the consensus observation (single-fault
  // ranking) — bit-identical to diagnose_observed() on the same vector.
  EngineDiagnosis single;
  std::size_t num_runs = 0;
  // Consensus-fail tests, and the subset no modeled fault detects (those
  // are excluded from the cover constraint and reported here instead).
  std::size_t failing_tests = 0;
  std::size_t unexplained_failures = 0;
  // Coverable failures the best reported group still leaves uncovered —
  // nonzero only when no full cover exists within max_cover.
  std::size_t uncovered_failures = 0;
  // Cardinality of the reported groups (0 when nothing fails).
  std::size_t min_cover = 0;
  // True when the search completed, proving min_cover minimal and groups
  // exhaustive (up to max_groups).
  bool cover_minimal = false;
  bool groups_truncated = false;
  // Ranked best-first: fewest conflicts, then highest confidence, then
  // lowest AD sum, then lexicographic fault ids.
  std::vector<AmbiguityGroup> groups;
  bool completed = true;  // cover search ran to completion
  StopReason stop_reason = StopReason::kCompleted;
};

// Immutable per-backend state over a shared store (the serving layer
// hot-swaps it by building a new engine): the store's pass/fail projection
// (passfail_rows, the rows the staged engine's projection stages use) as
// the detection rows, and their AD index.
class SessionEngine {
 public:
  explicit SessionEngine(std::shared_ptr<const SignatureStore> store);

  std::size_t num_faults() const { return num_faults_; }
  std::size_t num_tests() const { return num_tests_; }

  // Definite pass/fail-projection detection bit.
  bool detects(FaultId f, std::size_t t) const;

  SessionDiagnosis diagnose(const SessionEvidence& evidence,
                            const SessionOptions& options = {}) const;

 private:
  std::shared_ptr<const SignatureStore> store_;
  std::size_t num_faults_ = 0;
  std::size_t num_tests_ = 0;
  PassFailRows detect_;  // fail rows: num_faults_ x detect_.words
  std::vector<std::uint32_t> ad_;
};

}  // namespace sddict
