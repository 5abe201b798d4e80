// Noise-tolerant diagnosis engine: one lookup path for every dictionary
// type that degrades gracefully under imperfect tester data instead of
// silently misranking.
//
//  * Qualified observations (sim/response.h): tests recorded as kMissing or
//    kUnstable are don't-cares — excluded from mismatch counting — rather
//    than counted as mismatches against every fault.
//  * Tolerance-e nearest match: on a run that completes within budget,
//    every fault whose dictionary signature is within Hamming distance e of
//    the observed signature (over the cared tests) is guaranteed a slot in
//    the returned candidate set, even when that exceeds max_results.
//  * Confidence scoring: the margin between the best match and the
//    runner-up and the number of effectively compared tests are stamped on
//    the result and its top DiagnosisMatch.
//  * Staged fallback chain, so diagnosis always returns a typed, honest
//    answer: exact match -> tolerant match -> pass/fail-projection match ->
//    unmodeled-defect verdict with a best-effort multiple-fault cover.
//    Observations containing kUnknownResponse (a response no modeled fault
//    produces) can never yield a "confident" exact/tolerant verdict; they
//    fall through to the projection stages, where an unknown response still
//    carries its one honest bit of information: the test failed. The
//    projection stages (and the degraded-observation tiebreak) run on the
//    packed PassFailRows below through the same kernels as the native
//    stages; the rows are built per query, only when one of them runs.
//  * Budget-aware: ranking loops poll a RunBudget and return the
//    best-so-far prefix with completed == false on expiry, never throwing.
//  * Top-k pruned ranking: the sweep maintains the k-th-best mismatch count
//    seen so far (k = max(max_results, 2)) and hands each row's scorer the
//    bound max(k-th best, tolerance); the bounded kernels
//    (store/kernels.h) abandon a row as soon as its block-wise partial
//    count exceeds that bound. A row is only ever dropped when its final
//    count is provably larger, so the returned candidate list — order,
//    mismatch counts, margin, tolerance-e guarantee — is bit-identical to
//    the unpruned sweep's, including under budget expiry. `prune = false`
//    keeps the exhaustive sweep (the pruned path's differential oracle).
//  * Sharded ranking: with a ThreadPool and a large enough fault list, the
//    sweep splits across worker threads; shards prune against a shared
//    best-k bound (any published bound is valid, so racy timing can change
//    how much is pruned but never what is returned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dict/dictionary.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "sim/response.h"
#include "util/budget.h"

namespace sddict {

class ThreadPool;

struct EngineOptions {
  std::size_t max_results = 10;
  // Tolerance e of the nearest-match stage. The tolerant (and projection)
  // stages accept when the best candidate mismatches at most e cared tests.
  std::uint32_t tolerance = 0;
  // Cap on the multiple-fault cover built for an unmodeled-defect verdict.
  std::size_t max_cover = 8;
  // Wall-clock / cancellation budget; anytime, never throws on expiry.
  RunBudget budget{};
  // Top-k pruned ranking (see header comment): provably identical output,
  // skips most of most rows once the top-k bound tightens. Off = the
  // exhaustive sweep the pruned path is differentially tested against.
  bool prune = true;
  // When set and the fault list has at least shard_min_faults rows, the
  // ranking sweeps run as parallel_for_chunks on this pool. The caller must
  // not be a task on that same pool (ThreadPool::parallel_for is not
  // reentrant); the serving layer therefore only passes its pool on the
  // dispatcher-inline single-miss path. Results stay bit-identical to the
  // sequential sweep on completed runs; a budget expiry stops each shard at
  // its own prefix instead of one global prefix.
  ThreadPool* pool = nullptr;
  std::size_t shard_min_faults = 4096;
};

// How far down the fallback chain the engine had to go. The order is the
// chain order, so "later" means "weaker evidence".
enum class DiagnosisOutcome : std::uint8_t {
  kExactMatch = 0,      // a fault matches every cared test
  kTolerantMatch,       // best fault within tolerance of the observation
  kPassFailProjection,  // only the pass/fail projection matched (within
                        // tolerance); per-response detail did not
  kUnmodeledDefect,     // nothing in the single-fault model explains the
                        // observation; see `cover`
};

const char* diagnosis_outcome_name(DiagnosisOutcome o);

struct EngineDiagnosis {
  DiagnosisOutcome outcome = DiagnosisOutcome::kUnmodeledDefect;
  // Best-first candidates of the stage named by `outcome` (exact/tolerant:
  // native dictionary space; projection/unmodeled: pass/fail projection).
  // Holds at least every fault within `tolerance`, at most
  // max(max_results, that count) entries — on completed runs.
  std::vector<DiagnosisMatch> matches;
  std::uint32_t best_mismatches = 0;
  // Runner-up's mismatch count minus the best's; 0 when the best is tied
  // or there is no runner-up. Also stamped on matches.front().
  std::uint32_t margin = 0;
  // Tests actually compared in the stage that produced `matches`.
  std::size_t effective_tests = 0;
  std::size_t dont_care_tests = 0;  // kMissing/kUnstable observations
  std::size_t unknown_tests = 0;    // kUnknownResponse observations
  // Unmodeled-defect fallback: greedy multiple-fault cover of the observed
  // failing tests (faults whose detection sets jointly explain the fails),
  // and the failing tests no modeled fault detects.
  std::vector<FaultId> cover;
  std::size_t uncovered_failures = 0;
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
};

// Pass/fail projection of a dictionary's rows, packed (BitVec word layout,
// `words` 64-bit words per row, zero tail). The same/different bit is
// b = [z != z_bl], so the projection is word-parallel:
//
//   fail        per fault, the tests it definitely fails;
//   pass_known  the tests where a 0 fail bit also proves a pass.
//
// Per kind: same/different gives fail = ~(row ^ ff), pass_known = ff, ff
// marking the tests whose baseline is the fault-free id 0 (against a
// faulty baseline, bit 0 means "fails" and bit 1 is not derivable);
// pass/fail is that with every baseline 0. Multi-baseline fails a test
// where the row differs from a fault-free slot or matches a faulty slot,
// with pass_known = the tests whose set holds id 0. Full (and first-fail)
// rows fail where the entry is non-zero, and every test is pass_known.
//
// For a cared observation with fail bits O over cared tests C, the
// projected mismatch count of fault f is
// popcount((fail(f) ^ O) & C & (~O | pass_known)): an observed pass
// against a definite fail, or an observed fail against a proven pass.
struct PassFailRows {
  std::size_t words = 0;
  std::vector<std::uint64_t> fail;        // num_faults x words
  std::vector<std::uint64_t> pass_known;  // words
  const std::uint64_t* row(FaultId f) const {
    return fail.data() + static_cast<std::size_t>(f) * words;
  }
};

class SignatureStore;
PassFailRows passfail_rows(const SignatureStore& store);

// One engine entry point per dictionary type. With tolerance 0, an
// all-kValue observation and no budget, the ranking equals the
// dictionary's own diagnose() (same order, same mismatch counts).
//
// Observed values are response ids in the space of the matrix the
// dictionary was built from. The matrix-less overloads require the
// fault-free response to be interned at id 0 when projecting onto
// pass/fail — the same precondition the dictionaries' own build()
// functions rely on, and one every matrix from build_response_matrix or
// response_matrix_from_table satisfies. A response_matrix_from_ids matrix
// with a permuted fault-free id is not supported by these overloads (nor
// by the builders; see sim/response.h).
EngineDiagnosis diagnose_observed(const PassFailDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});
EngineDiagnosis diagnose_observed(const SameDifferentDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});
EngineDiagnosis diagnose_observed(const MultiBaselineDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});
// The first-fail dictionary needs the response matrix it was built from to
// translate response ids into first-failing-output symbols: the per-test
// fault-free id (rm.fault_free_id(), so it need not be interned at id 0)
// becomes 0, a faulty id 1 + its first failing output, an id the matrix
// cannot translate m+1 (no entry equals it), and kUnknownResponse stays
// as it is. The symbols are then ranked exactly like a full dictionary's
// entries.
EngineDiagnosis diagnose_observed(const FirstFailDictionary& dict,
                                  const ResponseMatrix& rm,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});
EngineDiagnosis diagnose_observed(const FullDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});

// Packed-store entry point (store/signature_store.h): dispatches on the
// store's kind and ranks straight off the mmap'd rows through the
// word-parallel kernels — same staged chain, bit-identical results to the
// dictionary overload of the same kind (the per-kind implementations are
// shared; only the row accessor differs). A first-fail or detection-list
// store has kind pass/fail and is diagnosed in that projection.
EngineDiagnosis diagnose_observed(const SignatureStore& store,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options = {});

// 1-based rank of `fault` in a best-first candidate list; 0 when absent.
std::size_t true_fault_rank(const std::vector<DiagnosisMatch>& matches,
                            FaultId fault);

}  // namespace sddict
