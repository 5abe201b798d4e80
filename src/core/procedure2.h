// The paper's Procedure 2: baseline replacement. Starting from a selected
// baseline assignment, every test's baseline is tentatively replaced by
// every other candidate response; a replacement is kept when it strictly
// increases the number of distinguished fault pairs. Sweeps repeat until a
// whole sweep makes no replacement.
//
// Scoring uses 128-bit row signatures: each dictionary row is summarized as
// the XOR of per-test tokens over its '1' bits, so the number of
// *in*distinguished pairs is the number of duplicate-signature pairs. The
// rows are one weighted row per full-response class (ResponseClasses,
// core/baseline.h): faults with identical full rows share every signature,
// so a class of w faults is one row counting w. For test j, the rows are
// grouped by their *rest* signature (the row with column j removed) and
// each group sums its weights; every candidate baseline z of j is then
// scored at once by CandidateScorer over those groups, which makes one test
// cost O(rows) whatever the number of candidates. The rest groups are read
// off the groups of equal signatures: a group whose bit j is set joins the
// group whose signature differs from its own by exactly test j's token, if
// that group's bit is clear.
//
// A test's scores depend only on the signature groups, which change only
// when a baseline is replaced. The tests ahead are therefore scored in
// parallel, a block at a time, against the current groups, and committed
// in test order — with the serial loop's target and budget checks — up to
// the first replacement; scoring then restarts from the next test against
// the new groups. Every committed score is the serial one, so the result
// is bit-identical at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/baseline.h"
#include "sim/response.h"
#include "util/budget.h"

namespace sddict {

struct Procedure2Result {
  std::vector<ResponseId> baselines;
  std::uint64_t distinguished_pairs = 0;
  std::uint64_t indistinguished_pairs = 0;
  std::size_t replacements = 0;
  std::size_t sweeps = 0;
  // Anytime: every replacement only improves the assignment, so a budgeted
  // run stopped mid-sweep returns a valid assignment at least as good as
  // the initial one, with completed == false.
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
};

struct Procedure2Config {
  // Stop once this many indistinguished pairs is reached (construct() sets
  // the full-dictionary count; nothing can do better).
  std::uint64_t target_indistinguished = 0;
  std::size_t max_sweeps = 100;
  // Worker threads for scoring; 0 = hardware concurrency. The tests ahead
  // are scored in parallel against the current signature groups and
  // committed in test order up to the first replacement, so the result is
  // bit-identical at every thread count.
  std::size_t num_threads = 0;
  // Deadline/cancellation, polled before each test column within a sweep.
  RunBudget budget{};
};

// Throws std::invalid_argument unless there is one initial baseline per
// test and each is a response id of its test. `classes` must be
// response_classes(rm); the form without them computes them.
Procedure2Result run_procedure2(const ResponseMatrix& rm,
                                const ResponseClasses& classes,
                                std::vector<ResponseId> initial_baselines,
                                const Procedure2Config& config = {});
Procedure2Result run_procedure2(const ResponseMatrix& rm,
                                std::vector<ResponseId> initial_baselines,
                                const Procedure2Config& config = {});

// The paper's construction chain on one response matrix.
struct Construction {
  // The full dictionary's indistinguished pairs: the floor under every
  // dictionary, and both procedures' target.
  std::uint64_t full_pairs = 0;
  BaselineSelection proc1;
  Procedure2Result proc2;  // proc2.baselines are the dictionary's baselines
  double proc1_s = 0;      // response classes, floor and Procedure 1
  double proc2_s = 0;
};

// Groups the faults into response classes once, takes the full-dictionary
// floor from them, overwrites both configs' target_indistinguished with it,
// then runs Procedure 1 and Procedure 2 from Procedure 1's baselines. Both
// budgets' deadlines run from this call, not from each procedure's start.
Construction construct(const ResponseMatrix& rm,
                       BaselineSelectionConfig baseline,
                       Procedure2Config proc2 = {});

// Exact (non-incremental) count of indistinguished pairs under a baseline
// assignment; handy for verification. Validates `baselines` as
// run_procedure2 does.
std::uint64_t count_indistinguished(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines);

// Every fault's same/different row signature under `baselines`: the XOR of
// test_token(j) (core/sigset.h) over the tests whose response differs from
// baselines[j]. Computed column by column; `baselines` is not validated.
std::vector<Hash128> row_signatures(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& baselines);

}  // namespace sddict
