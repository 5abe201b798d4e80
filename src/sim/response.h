// The response matrix is the central artifact the dictionary layer is built
// from: for every fault f_i and test t_j it records *which* output vector
// the faulty circuit produced, as a small per-test integer id.
//
//   id 0          == the fault-free response z_ff,j
//   id r (r > 0)  == the r-th distinct faulty response observed under t_j
//
// Equality of output vectors is decided through 128-bit signatures: the
// signature of a response is the XOR of per-output tokens over the outputs
// that differ from the fault-free value. Distinct difference sets collide
// with probability ~2^-128, negligible at any realistic circuit size.
// Optionally the sparse difference lists themselves are retained, which
// lets callers reconstruct full output vectors (used by diagnosis examples).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/faultlist.h"
#include "netlist/netlist.h"
#include "sim/testset.h"
#include "util/bitvec.h"
#include "util/budget.h"
#include "util/hash.h"

namespace sddict {

using ResponseId = std::uint32_t;

// Data-quality qualifier of one per-test tester observation. Real datalogs
// are imperfect: a record can be lost (kMissing) or the tester can read an
// inconsistent value across retries (kUnstable). Qualified tests are
// don't-cares for the diagnosis engine (diag/engine.h) — excluded from
// mismatch counting — instead of silently mismatching every fault.
enum class ObservedStatus : std::uint8_t { kValue = 0, kMissing, kUnstable };

struct Observed {
  ResponseId value = 0;  // meaningful only when status == kValue
  ObservedStatus status = ObservedStatus::kValue;

  bool dont_care() const { return status != ObservedStatus::kValue; }

  static Observed of(ResponseId v) { return {v, ObservedStatus::kValue}; }
  static Observed missing() { return {0, ObservedStatus::kMissing}; }
  static Observed unstable() { return {0, ObservedStatus::kUnstable}; }

  bool operator==(const Observed&) const = default;
};

// Lifts a plain per-test id vector into fully-observed qualified form.
std::vector<Observed> qualify(const std::vector<ResponseId>& observed);

struct ResponseMatrixOptions {
  // Keep, for every (test, response id), the sorted list of outputs whose
  // value differs from fault-free. Costs memory; off for large sweeps.
  bool store_diff_outputs = false;
  // Worker threads for fault simulation; 0 = hardware concurrency. The
  // resulting matrix is bit-identical at every thread count: the fault list
  // is partitioned into contiguous chunks, each simulated by its own
  // four-lane fault simulator into chunk-local response ids, and a
  // deterministic merge re-interns signatures in ascending
  // first-detecting-fault order — the same order the single-threaded
  // construction produces.
  std::size_t num_threads = 0;
  // Wall-clock / cancellation budget for the simulation. Anytime: on
  // expiry each chunk stops at a pass boundary (a pass simulates 256
  // tests), the (fault, test) entries never reached keep response id 0
  // (undetected), and the status out-param reports completed == false. The
  // partial matrix is structurally valid (id 0 is still the fault-free
  // response of every test) but is NOT guaranteed bit-identical across
  // thread counts — only completed runs are.
  RunBudget budget{};
};

// Completion report of build_response_matrix (pass to receive it).
struct ResponseMatrixStatus {
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
  // Fault rows simulated against every pattern; rows of chunks that were
  // interrupted mid-way are not counted even where partially filled.
  std::size_t faults_simulated = 0;
};

class ResponseMatrix {
 public:
  std::size_t num_faults() const { return num_faults_; }
  std::size_t num_tests() const { return num_tests_; }
  std::size_t num_outputs() const { return num_outputs_; }

  ResponseId response(FaultId fault, std::size_t test) const {
    return resp_[test * num_faults_ + fault];
  }

  // Every fault's response id under `test`, indexed by fault id. The
  // matrix is stored test-major, so this is a view, not a copy; loops over
  // the whole matrix should walk it column by column.
  std::span<const ResponseId> column(std::size_t test) const {
    return {resp_.data() + test * num_faults_, num_faults_};
  }

  bool detected(FaultId fault, std::size_t test) const {
    return response(fault, test) != 0;
  }

  // Number of distinct responses under this test, fault-free included
  // (|Z_j| in the paper, except that responses no fault produces are not
  // enumerated — they can never distinguish anything).
  std::size_t num_distinct(std::size_t test) const {
    return signatures_[test].size();
  }

  const Hash128& signature(std::size_t test, ResponseId id) const {
    return signatures_[test][id];
  }

  // Id of the response with the given signature under `test`, or
  // static_cast<ResponseId>(-1) when no modeled fault produces it.
  ResponseId find_response(std::size_t test, const Hash128& sig) const;

  // Id of the fault-free response under `test` (the empty difference
  // signature). Matrices built by build_response_matrix or
  // response_matrix_from_table always intern it as id 0 (asserted at build
  // time); response_matrix_from_ids may place it anywhere, so callers that
  // need "the pass/fail baseline" must resolve it through here rather than
  // assuming 0.
  ResponseId fault_free_id(std::size_t test) const {
    return find_response(test, Hash128{});
  }

  // How many faults produce each response id under `test`; index 0 counts
  // faults the test does not detect.
  std::vector<std::uint32_t> response_counts(std::size_t test) const;

  // Number of tests that detect each fault, indexed by fault id.
  std::vector<std::uint32_t> detection_counts() const;

  // One row per fault whose bit t is set iff the fault's response under
  // test t differs from reference[t]: the same/different dictionary's rows
  // for baselines `reference`, and the pass/fail rows when every reference
  // is the fault-free id 0. Built 64 tests (one row word) at a time.
  std::vector<BitVec> difference_rows(
      const std::vector<ResponseId>& reference) const;

  // Sorted outputs differing from fault-free for (test, id); requires
  // store_diff_outputs. id 0 yields an empty list.
  const std::vector<std::uint32_t>& diff_outputs(std::size_t test,
                                                 ResponseId id) const;

  bool has_diff_outputs() const { return has_diffs_; }

 private:
  friend ResponseMatrix build_response_matrix(const Netlist&, const FaultList&,
                                              const TestSet&,
                                              const ResponseMatrixOptions&,
                                              ResponseMatrixStatus*);
  friend ResponseMatrix response_matrix_from_table(
      const std::vector<BitVec>&, const std::vector<std::vector<BitVec>>&);
  friend ResponseMatrix response_matrix_from_ids(
      std::vector<ResponseId>, std::vector<std::vector<Hash128>>, std::size_t,
      std::size_t, std::size_t);

  std::size_t num_faults_ = 0;
  std::size_t num_tests_ = 0;
  std::size_t num_outputs_ = 0;
  bool has_diffs_ = false;
  std::vector<ResponseId> resp_;                   // test-major [k][n]
  std::vector<std::vector<Hash128>> signatures_;   // [test][id]
  std::vector<std::vector<std::vector<std::uint32_t>>> diffs_;  // [test][id]
};

ResponseMatrix build_response_matrix(const Netlist& nl, const FaultList& faults,
                                     const TestSet& tests,
                                     const ResponseMatrixOptions& options = {},
                                     ResponseMatrixStatus* status = nullptr);

// Builds a matrix directly from explicit output vectors: fault_free[j] is
// z_ff,j and faulty[i][j] is z_i,j. Used when responses come from an
// external source (e.g. the paper's worked example) rather than from fault
// simulation. Difference lists are always stored.
ResponseMatrix response_matrix_from_table(
    const std::vector<BitVec>& fault_free,
    const std::vector<std::vector<BitVec>>& faulty);

// Builds a matrix from an explicit id table plus per-test signature lists:
// resp is fault-major [num_faults][num_tests] (transposed into the matrix's
// test-major layout here), signatures[j][id] the
// difference signature of response id under test j. Unlike the other
// builders this does NOT require the fault-free response to be id 0 — every
// test must still have exactly one empty signature (validated), which
// fault_free_id() resolves. Used for external/deserialized id tables and to
// exercise id-permutation robustness in tests. Difference lists are not
// stored. Caveat: detected() keeps its id-0 convention, so on a matrix with
// a permuted fault-free id only consumers that resolve through
// fault_free_id() (e.g. run_procedure1) interpret it correctly.
ResponseMatrix response_matrix_from_ids(
    std::vector<ResponseId> resp, std::vector<std::vector<Hash128>> signatures,
    std::size_t num_faults, std::size_t num_tests, std::size_t num_outputs);

}  // namespace sddict
