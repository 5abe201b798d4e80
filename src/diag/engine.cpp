#include "diag/engine.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/bitvec.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace sddict {

const char* diagnosis_outcome_name(DiagnosisOutcome o) {
  switch (o) {
    case DiagnosisOutcome::kExactMatch: return "exact-match";
    case DiagnosisOutcome::kTolerantMatch: return "tolerant-match";
    case DiagnosisOutcome::kPassFailProjection: return "pass/fail-projection";
    case DiagnosisOutcome::kUnmodeledDefect: return "unmodeled-defect";
  }
  return "?";
}

std::size_t true_fault_rank(const std::vector<DiagnosisMatch>& matches,
                            FaultId fault) {
  for (std::size_t i = 0; i < matches.size(); ++i)
    if (matches[i].fault == fault) return i + 1;
  return 0;
}

namespace {

// Faults scored between budget polls in the ranking loops: one block of
// the batched sweep.
constexpr std::size_t kPollStride = 256;

// "No pruning bound" sentinel handed to the bounded scorers; the bounded
// kernels short-circuit on it (store/kernels.h).
constexpr std::uint32_t kNoLimit = ~std::uint32_t{0};

// Running k-th-best tracker for the pruning bound: a max-heap of the k
// smallest exact mismatch counts seen so far. kth() stays kNoLimit until k
// rows have been fully counted — any k counts give a valid (if loose)
// upper bound on the final k-th best, which is all the pruning proof
// needs.
class TopKBound {
 public:
  explicit TopKBound(std::size_t k) : k_(k) {}
  void add(std::uint32_t m) {
    if (heap_.size() < k_) {
      heap_.push(m);
    } else if (m < heap_.top()) {
      heap_.pop();
      heap_.push(m);
    }
  }
  std::uint32_t kth() const {
    return heap_.size() == k_ ? heap_.top() : kNoLimit;
  }

 private:
  std::size_t k_;
  std::priority_queue<std::uint32_t> heap_;
};

// Everything the staged chain needs to know about the observation before
// any fault is scored, including its pass/fail projection: a cared test
// fails when its value differs from the fault-free id 0. kUnknownResponse
// never equals it, so an unknown response still carries its one honest
// bit: the test failed.
struct ObservationSummary {
  std::size_t num_faults = 0;
  std::size_t effective_tests = 0;
  std::size_t dont_care_tests = 0;
  std::size_t unknown_tests = 0;
  BitVec fails;  // O: cared tests that fail
  BitVec care;   // C: tests that are not don't-cares
};

ObservationSummary summarize(std::size_t num_faults,
                             const std::vector<Observed>& observed) {
  ObservationSummary sum;
  sum.num_faults = num_faults;
  sum.fails = BitVec(observed.size());
  sum.care = BitVec(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    const Observed& o = observed[t];
    if (o.dont_care()) {
      ++sum.dont_care_tests;
      continue;
    }
    if (o.value == kUnknownResponse) ++sum.unknown_tests;
    sum.care.set(t, true);
    sum.fails.set(t, o.value != 0);
  }
  sum.effective_tests = observed.size() - sum.dont_care_tests;
  return sum;
}

// A ranking stage's rows against one observation, scored in two steps
// (the bounded-kernel contract, store/kernels.h): first_block() writes the
// exact count of the first bounded block — kernels::kBoundedBlockWords
// words or kBoundedBlockLanes symbol lanes — of rows [begin, begin + n),
// n <= kPollStride, in one batched kernel call; rest() finishes a wide()
// row whose first-block count `partial` is within `limit`, abandoning it
// as soon as the running count exceeds the limit. Lane is std::uint64_t
// for bit rows (Care the same) and std::uint32_t for symbol rows (Care
// std::uint8_t); RowFn: FaultId -> const Lane*.
template <typename Lane, typename Care, typename RowFn>
struct RowScorer {
  static constexpr bool kBits = std::is_same_v<Lane, std::uint64_t>;
  static constexpr std::size_t kBlock =
      kBits ? kernels::kBoundedBlockWords : kernels::kBoundedBlockLanes;

  const kernels::KernelTable& kt;
  const RowFn& row;
  const Lane* obs;
  const Care* care;
  std::size_t width;  // lanes per row

  bool wide() const { return width > kBlock; }

  void first_block(std::size_t begin, std::size_t n, std::uint32_t* out) const {
    const Lane* rows[kPollStride];
    for (std::size_t i = 0; i < n; ++i)
      rows[i] = row(static_cast<FaultId>(begin + i));
    const std::size_t w = std::min(width, kBlock);
    if constexpr (kBits)
      kt.masked_hamming_rows(rows, n, obs, care, w, out);
    else
      kt.masked_symbol_mismatches_rows(rows, n, obs, care, w, out);
  }

  std::uint32_t rest(FaultId f, std::uint32_t partial,
                     std::uint32_t limit) const {
    const std::uint32_t left = limit == kNoLimit ? kNoLimit : limit - partial;
    if constexpr (kBits)
      return partial + kernels::masked_hamming_bounded(
                           kt, row(f) + kBlock, obs + kBlock, care + kBlock,
                           width - kBlock, left);
    else
      return partial + kernels::masked_symbol_mismatches_bounded(
                           kt, row(f) + kBlock, obs + kBlock, care + kBlock,
                           width - kBlock, left);
  }
};

// Sweeps rows [begin, end) in blocks of kPollStride: per block one budget
// poll, one batched first-block call, then each row in order against
// bound() — re-read per row, since keeping a row can tighten it — with
// only rows wider than one block continuing through the bounded kernel.
// keep(f, m) receives every row whose count is within its bound. Returns
// false when the budget stopped the sweep at a block boundary.
//
// bound() never grows during a sweep, and a first-block count is a lower
// bound on the row's count, so a row whose first-block count exceeds the
// bound read at the start of its block is dropped whatever the bound is
// by its turn. A branch-free pass discards those rows first; only the
// rest take the per-row filter.
template <typename Scorer, typename BoundFn, typename KeepFn>
bool sweep_rows(const Scorer& score, std::size_t begin, std::size_t end,
                BudgetScope& scope, const BoundFn& bound, const KeepFn& keep) {
  std::uint32_t first[kPollStride];
  std::uint32_t open[kPollStride];
  for (std::size_t b = begin; b < end; b += kPollStride) {
    // Tests trip the budget at a chosen poll through this failpoint, so a
    // stopped sweep's prefix is reproducible.
    if (failpoint::triggered("diag.sweep.poll"))
      scope.trip(StopReason::kCancelled);
    if (scope.stop()) return false;
    const std::size_t n = std::min(kPollStride, end - b);
    score.first_block(b, n, first);
    const std::uint32_t block_limit = bound();
    std::size_t num_open = 0;
    for (std::size_t i = 0; i < n; ++i) {
      open[num_open] = static_cast<std::uint32_t>(i);
      num_open += first[i] <= block_limit;
    }
    for (std::size_t j = 0; j < num_open; ++j) {
      const std::size_t i = open[j];
      const auto f = static_cast<FaultId>(b + i);
      const std::uint32_t limit = bound();
      std::uint32_t m = first[i];
      if (m <= limit && score.wide()) m = score.rest(f, m, limit);
      if (m <= limit) keep(f, m);  // else provably outside top-k and tolerance
    }
  }
  return true;
}

struct StageRank {
  std::vector<DiagnosisMatch> matches;  // sorted best-first, truncated
  std::uint32_t best = 0;
  std::uint32_t margin = 0;
  bool complete = true;
};

// Scores every fault (budget permitting), ranks, and truncates to
// max(max_results, faults within tolerance) — the tolerance-e guarantee.
//
// `score` is a RowScorer; each row's count follows the bounded-kernel
// contract (store/kernels.h): exact when <= the row's limit, and any value
// > limit only promises the true count is also > limit. With opt.prune the
// sweep hands each row the bound max(k-th best so far, tolerance), k =
// max(max_results, 2), and drops rows whose count provably exceeds it.
// Every dropped row's final count is strictly greater than that of every
// row the truncation below can keep (the k-th best only tightens, and keep
// <= max(k, faults within tolerance)), and with k >= 2 the runner-up
// stays exact — so order, counts, margin and the tolerance-e guarantee
// are bit-identical to the unpruned sweep, including on budget-stopped
// prefixes.
//
// Candidates are collected in ascending fault order on both paths, which
// is rank_matches' precondition. `tiebreak` (nullptr for none) orders
// faults whose mismatch counts tie before the fault-id fallback; it never
// reorders differently-scored candidates, so reported mismatch counts are
// unaffected.
template <typename Scorer, typename TieFn>
StageRank rank_stage(std::size_t num_faults, std::size_t effective,
                     const EngineOptions& opt, BudgetScope& scope,
                     const Scorer& score, const TieFn& tiebreak) {
  StageRank r;
  const auto eff32 = static_cast<std::uint32_t>(effective);
  const std::size_t k = std::max<std::size_t>(opt.max_results, 2);
  std::vector<DiagnosisMatch> all;

  const bool sharded = opt.pool != nullptr && opt.pool->num_threads() > 1 &&
                       num_faults >= opt.shard_min_faults;
  if (sharded) {
    // Index-addressed slots, so shard timing cannot reorder anything: slot
    // f holds fault f's exact count, or kNoLimit for a pruned (or, after a
    // budget stop, unreached) row. Shards prune against the minimum of
    // their local k-th best and a shared published bound; every published
    // value is a valid bound, so the relaxed min-CAS can lose races
    // without affecting what is returned — only how much gets pruned.
    std::vector<std::uint32_t> counts(num_faults, kNoLimit);
    std::atomic<std::uint32_t> shared_kth{kNoLimit};
    std::atomic<bool> stopped{false};
    const std::size_t chunks = opt.pool->num_threads() * 4;
    opt.pool->parallel_for_chunks(
        0, num_faults, chunks, [&](std::size_t begin, std::size_t end) {
          TopKBound local(k);
          const auto bound = [&] {
            if (!opt.prune) return kNoLimit;
            const std::uint32_t kth = std::min(
                local.kth(), shared_kth.load(std::memory_order_relaxed));
            return kth == kNoLimit ? kNoLimit : std::max(kth, opt.tolerance);
          };
          const auto keep = [&](FaultId f, std::uint32_t m) {
            counts[f] = m;
            if (!opt.prune) return;
            local.add(m);
            const std::uint32_t lk = local.kth();
            std::uint32_t cur = shared_kth.load(std::memory_order_relaxed);
            while (lk < cur && !shared_kth.compare_exchange_weak(
                                   cur, lk, std::memory_order_relaxed)) {
            }
          };
          if (!sweep_rows(score, begin, end, scope, bound, keep))
            stopped.store(true, std::memory_order_relaxed);
        });
    r.complete = !stopped.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < num_faults; ++i)
      if (counts[i] != kNoLimit)
        all.push_back({static_cast<FaultId>(i), counts[i], 0, eff32});
  } else {
    all.reserve(opt.prune ? std::min<std::size_t>(num_faults, 1024)
                          : num_faults);
    TopKBound best(k);
    r.complete = sweep_rows(
        score, 0, num_faults, scope,
        [&] {
          return opt.prune && best.kth() != kNoLimit
                     ? std::max(best.kth(), opt.tolerance)
                     : kNoLimit;
        },
        [&](FaultId f, std::uint32_t m) {
          all.push_back({f, m, 0, eff32});
          if (opt.prune) best.add(m);
        });
  }
  std::size_t within = 0;
  for (const DiagnosisMatch& m : all) within += m.mismatches <= opt.tolerance;
  const std::size_t keep = std::max(opt.max_results, within);
  if constexpr (!std::is_null_pointer_v<TieFn>) {
    // Keyed by fault id (not position), so the comparator stays correct if
    // the candidate list is ever filtered or reordered before the sort.
    std::vector<std::uint32_t> sec(num_faults, 0);
    for (const DiagnosisMatch& m : all) sec[m.fault] = tiebreak(m.fault);
    std::sort(all.begin(), all.end(),
              [&sec](const DiagnosisMatch& a, const DiagnosisMatch& b) {
                if (a.mismatches != b.mismatches)
                  return a.mismatches < b.mismatches;
                if (sec[a.fault] != sec[b.fault])
                  return sec[a.fault] < sec[b.fault];
                return a.fault < b.fault;
              });
  } else {
    // The counting pass emits only the best max(keep, 2) candidates: the
    // margin needs the runner-up even when keep is 1.
    all = rank_matches(std::move(all), std::max<std::size_t>(keep, 2));
  }
  if (!all.empty()) {
    r.best = all.front().mismatches;
    if (all.size() >= 2) r.margin = all[1].mismatches - r.best;
    if (all.size() > keep) all.resize(keep);
    if (!all.empty()) all.front().margin = r.margin;
  }
  r.matches = std::move(all);
  return r;
}

// The staged fallback chain shared by all dictionary types. `native` is
// the kind's RowScorer; `project()` builds the kind's PassFailRows, called
// at most once and only when the degraded tiebreak or stage 3 needs them.
template <typename NativeScorer, typename ProjectFn>
EngineDiagnosis run_chain(const ObservationSummary& sum,
                          const NativeScorer& native, const ProjectFn& project,
                          const EngineOptions& opt) {
  BudgetScope scope(opt.budget);
  EngineDiagnosis out;
  out.dont_care_tests = sum.dont_care_tests;
  out.unknown_tests = sum.unknown_tests;
  out.effective_tests = sum.effective_tests;

  // Pass/fail-projection mismatch count of one fault (engine.h):
  // popcount((fail ^ O) & C & (~O | pass_known)), reused by the
  // native-stage tiebreak and by stage 3.
  const kernels::KernelTable& kt = kernels::dispatch();
  const std::uint64_t* ow = sum.fails.words().data();
  PassFailRows rows;
  std::vector<std::uint64_t> mask;
  bool projected = false;
  const auto ensure_rows = [&] {
    if (projected) return;
    projected = true;
    rows = project();
    mask.resize(rows.words);
    for (std::size_t w = 0; w < rows.words; ++w)
      mask[w] = sum.care.words()[w] & (~ow[w] | rows.pass_known[w]);
  };
  const auto proj_row = [&rows](FaultId f) { return rows.row(f); };

  // Stages 1+2: exact / tolerant nearest match in the dictionary's native
  // space. An observation containing unmodeled responses can never produce
  // a confident native verdict, no matter how well the bits happen to line
  // up — it falls through to the projection stages.
  //
  // When the observation is visibly degraded (dropped/unstable records or
  // unmodeled responses), native ties are broken by pass/fail-projection
  // agreement: the projection is a coarser view, but its bits fail
  // independently of the native bits, so consulting it separates candidates
  // the noisy native signature can no longer tell apart. A clean
  // observation skips this and reproduces the dictionary's classical
  // ranking exactly.
  const bool degraded = sum.dont_care_tests > 0 || sum.unknown_tests > 0;
  StageRank nat;
  if (degraded) {
    ensure_rows();
    nat = rank_stage(sum.num_faults, sum.effective_tests, opt, scope, native,
                     [&](FaultId f) {
                       return kt.masked_hamming(rows.row(f), ow, mask.data(),
                                                rows.words);
                     });
  } else {
    nat = rank_stage(sum.num_faults, sum.effective_tests, opt, scope, native,
                     nullptr);
  }
  if (!nat.matches.empty() && sum.unknown_tests == 0 &&
      nat.best <= opt.tolerance) {
    out.outcome = nat.best == 0 ? DiagnosisOutcome::kExactMatch
                                : DiagnosisOutcome::kTolerantMatch;
    out.matches = std::move(nat.matches);
    out.best_mismatches = nat.best;
    out.margin = nat.margin;
    out.completed = nat.complete;
    out.stop_reason = nat.complete ? StopReason::kCompleted : scope.reason();
    return out;
  }

  // Stage 3: pass/fail projection — compare only the tests where both the
  // observation and the dictionary row project onto pass/fail.
  ensure_rows();
  StageRank proj = rank_stage(
      sum.num_faults, sum.effective_tests, opt, scope,
      RowScorer{kt, proj_row, ow, mask.data(), rows.words}, nullptr);
  out.completed = nat.complete && proj.complete;
  out.stop_reason = out.completed ? StopReason::kCompleted : scope.reason();

  if (proj.matches.empty() && !nat.matches.empty()) {
    // Budget expired before the projection scored anything; the native
    // best-so-far prefix is the strongest remaining evidence.
    out.outcome = DiagnosisOutcome::kUnmodeledDefect;
    out.matches = std::move(nat.matches);
    out.best_mismatches = nat.best;
    out.margin = nat.margin;
    return out;
  }

  out.matches = std::move(proj.matches);
  out.best_mismatches = proj.best;
  out.margin = proj.margin;
  if (!out.matches.empty() && proj.best <= opt.tolerance) {
    out.outcome = DiagnosisOutcome::kPassFailProjection;
    return out;
  }

  // Stage 4: unmodeled defect. Build a best-effort multiple-fault cover of
  // the observed failing tests (greedy set cover over the fail rows):
  // highest gain, lowest fault id among ties. Gains are counted once and
  // maintained incrementally — each pick subtracts every row's overlap
  // with the tests it newly covers — so the covers equal a per-pick
  // recount's.
  out.outcome = DiagnosisOutcome::kUnmodeledDefect;
  const std::size_t nw = rows.words;
  const std::vector<std::uint64_t> zeros(nw, 0);
  std::vector<std::uint64_t> uncovered = sum.fails.words();
  std::vector<std::uint64_t> newly(nw);
  std::vector<std::uint32_t> gain(sum.num_faults, 0);
  kernels::masked_hamming_strided(kt, rows.fail.data(), nw, sum.num_faults,
                                  zeros.data(), uncovered.data(), nw,
                                  gain.data());
  std::size_t left = sum.fails.count_ones();
  while (left > 0 && out.cover.size() < opt.max_cover) {
    if (scope.stop()) {
      out.completed = false;
      out.stop_reason = scope.reason();
      break;
    }
    FaultId best_f = kNoFault;
    std::uint32_t best_gain = 0;
    for (FaultId f = 0; f < sum.num_faults; ++f)
      if (gain[f] > best_gain) {
        best_gain = gain[f];
        best_f = f;
      }
    if (best_gain == 0) break;
    out.cover.push_back(best_f);
    const std::uint64_t* picked = rows.row(best_f);
    for (std::size_t w = 0; w < nw; ++w) {
      newly[w] = picked[w] & uncovered[w];
      uncovered[w] &= ~picked[w];
    }
    left -= best_gain;
    for (FaultId f = 0; f < sum.num_faults; ++f)
      if (gain[f] != 0)
        gain[f] -= kt.masked_hamming(rows.row(f), zeros.data(), newly.data(),
                                     nw);
  }
  out.uncovered_failures = left;
  return out;
}

// --- Pass/fail projection builders (engine.h), templated over the same
// row accessors as the per-kind implementations below.

PassFailRows empty_rows(std::size_t num_faults, std::size_t num_tests) {
  PassFailRows p;
  p.words = BitVec::word_count(num_tests);
  p.fail.assign(num_faults * p.words, 0);
  p.pass_known.assign(p.words, 0);
  return p;
}

void set_bit(std::uint64_t* words, std::size_t i) {
  words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

// Same/different; pass/fail is the case of every baseline equal to 0.
// BaselineFn: test -> baseline response id.
template <typename RowWordsFn, typename BaselineFn>
PassFailRows samediff_rows(std::size_t num_faults, std::size_t num_tests,
                           const RowWordsFn& row_words,
                           const BaselineFn& baseline) {
  PassFailRows p = empty_rows(num_faults, num_tests);
  for (std::size_t t = 0; t < num_tests; ++t)
    if (baseline(t) == 0) set_bit(p.pass_known.data(), t);
  const BitVec in_range(num_tests, true);
  const std::uint64_t* valid = in_range.words().data();
  for (FaultId f = 0; f < num_faults; ++f) {
    const std::uint64_t* row = row_words(f);
    std::uint64_t* out = p.fail.data() + f * p.words;
    for (std::size_t w = 0; w < p.words; ++w)
      out[w] = ~(row[w] ^ p.pass_known[w]) & valid[w];
  }
  return p;
}

// Multi-baseline, per bit: rows are num_tests*rank bits; BaselineSetFn:
// test -> {ids, count} of its (possibly ragged) baseline set.
template <typename RowWordsFn, typename BaselineSetFn>
PassFailRows multibaseline_rows(std::size_t num_faults, std::size_t num_tests,
                                std::size_t rank, const RowWordsFn& row_words,
                                const BaselineSetFn& baseline_set) {
  PassFailRows p = empty_rows(num_faults, num_tests);
  for (std::size_t t = 0; t < num_tests; ++t) {
    const auto [ids, count] = baseline_set(t);
    for (std::size_t l = 0; l < count; ++l)
      if (ids[l] == 0) set_bit(p.pass_known.data(), t);
  }
  for (FaultId f = 0; f < num_faults; ++f) {
    const std::uint64_t* row = row_words(f);
    std::uint64_t* out = p.fail.data() + f * p.words;
    for (std::size_t t = 0; t < num_tests; ++t) {
      const auto [ids, count] = baseline_set(t);
      for (std::size_t l = 0; l < count; ++l)
        if (kernels::bit_at(row, t * rank + l) == (ids[l] == 0)) {
          set_bit(out, t);  // differs from fault-free / matches a faulty one
          break;
        }
    }
  }
  return p;
}

// Full and first-fail: RowIdsFn: FaultId -> const ResponseId* (num_tests
// u32 lanes), 0 = pass.
template <typename RowIdsFn>
PassFailRows full_rows(std::size_t num_faults, std::size_t num_tests,
                       const RowIdsFn& row_ids) {
  PassFailRows p = empty_rows(num_faults, num_tests);
  p.pass_known = BitVec(num_tests, true).words();
  for (FaultId f = 0; f < num_faults; ++f) {
    const ResponseId* ids = row_ids(f);
    std::uint64_t* out = p.fail.data() + f * p.words;
    for (std::size_t t = 0; t < num_tests; ++t)
      if (ids[t] != 0) set_bit(out, t);
  }
  return p;
}

// --- Per-kind implementations, shared by the dictionary and the packed
// SignatureStore entry points. Each is templated over the row accessors
// (BitVec rows and mmap'd store rows expose the same word layout), so the
// dictionary overload and the store overload of a kind run literally the
// same code — the basis of the serving layer's equivalence guarantee. The
// native mismatch loops go through the word-parallel kernels
// (store/kernels.h) instead of per-bit loops.

// RowWordsFn: FaultId -> const uint64_t* (num_tests bits, BitVec layout,
// zero tail); BaselineFn: test -> baseline response id.
template <typename RowWordsFn, typename BaselineFn>
EngineDiagnosis diagnose_samediff_impl(std::size_t num_faults,
                                       std::size_t num_tests,
                                       const RowWordsFn& row_words,
                                       const BaselineFn& baseline,
                                       const std::vector<Observed>& observed,
                                       const EngineOptions& options,
                                       const char* what) {
  check_observation_size(what, num_tests, observed.size());
  const ObservationSummary sum = summarize(num_faults, observed);
  BitVec bits(num_tests);
  for (std::size_t t = 0; t < observed.size(); ++t)
    if (!observed[t].dont_care())
      bits.set(t, observed[t].value != baseline(t));
  const std::uint64_t* ow = bits.words().data();
  const std::uint64_t* cw = sum.care.words().data();
  const std::size_t nw = bits.words().size();
  // Hoisted: one dispatch() guard per query, not per row.
  const kernels::KernelTable& kt = kernels::dispatch();
  return run_chain(
      sum, RowScorer{kt, row_words, ow, cw, nw},
      [&] { return samediff_rows(num_faults, num_tests, row_words, baseline); },
      options);
}

// RowWordsFn rows are num_tests*rank bits; BaselineSetFn as for
// multibaseline_rows.
template <typename RowWordsFn, typename BaselineSetFn>
EngineDiagnosis diagnose_multibaseline_impl(
    std::size_t num_faults, std::size_t num_tests, std::size_t rank,
    const RowWordsFn& row_words, const BaselineSetFn& baseline_set,
    const std::vector<Observed>& observed, const EngineOptions& options,
    const char* what) {
  check_observation_size(what, num_tests, observed.size());
  const ObservationSummary sum = summarize(num_faults, observed);
  BitVec bits(num_tests * rank);
  BitVec care(num_tests * rank);
  for (std::size_t t = 0; t < observed.size(); ++t) {
    if (observed[t].dont_care()) continue;
    const auto [ids, count] = baseline_set(t);
    for (std::size_t l = 0; l < rank; ++l) {
      care.set(t * rank + l, true);
      if (l >= count || observed[t].value != ids[l])
        bits.set(t * rank + l, true);
    }
  }
  const std::uint64_t* ow = bits.words().data();
  const std::uint64_t* cw = care.words().data();
  const std::size_t nw = bits.words().size();
  // Hoisted: one dispatch() guard per query, not per row.
  const kernels::KernelTable& kt = kernels::dispatch();
  return run_chain(
      sum, RowScorer{kt, row_words, ow, cw, nw},
      [&] {
        return multibaseline_rows(num_faults, num_tests, rank, row_words,
                                  baseline_set);
      },
      options);
}

// RowIdsFn: FaultId -> const ResponseId* (num_tests u32 lanes).
template <typename RowIdsFn>
EngineDiagnosis diagnose_full_impl(std::size_t num_faults,
                                   std::size_t num_tests,
                                   const RowIdsFn& row_ids,
                                   const std::vector<Observed>& observed,
                                   const EngineOptions& options,
                                   const char* what) {
  check_observation_size(what, num_tests, observed.size());
  const ObservationSummary sum = summarize(num_faults, observed);
  // Dictionary entries are always modeled ids, so kUnknownResponse in the
  // observation lane mismatches every row — the kernel needs no special
  // case for it.
  std::vector<std::uint32_t> obs(num_tests, 0);
  std::vector<std::uint8_t> care(num_tests, 0);
  for (std::size_t t = 0; t < observed.size(); ++t) {
    if (observed[t].dont_care()) continue;
    care[t] = 1;
    obs[t] = observed[t].value;
  }
  const kernels::KernelTable& kt = kernels::dispatch();
  return run_chain(
      sum, RowScorer{kt, row_ids, obs.data(), care.data(), num_tests},
      [&] { return full_rows(num_faults, num_tests, row_ids); }, options);
}

// Baseline of every test of a pass/fail dictionary or store.
constexpr auto fault_free_baseline = [](std::size_t) { return ResponseId{0}; };

}  // namespace

PassFailRows passfail_rows(const SignatureStore& store) {
  const auto row = [&store](FaultId f) { return store.row_words(f); };
  switch (store.kind()) {
    case StoreKind::kPassFail:
      return samediff_rows(store.num_faults(), store.num_tests(), row,
                           fault_free_baseline);
    case StoreKind::kSameDifferent:
      return samediff_rows(
          store.num_faults(), store.num_tests(), row,
          [&store](std::size_t t) { return store.baselines()[t]; });
    case StoreKind::kMultiBaseline:
      return multibaseline_rows(
          store.num_faults(), store.num_tests(), store.rank(), row,
          [&store](std::size_t t) { return store.baseline_set(t); });
    case StoreKind::kFull:
      return full_rows(store.num_faults(), store.num_tests(),
                       [&store](FaultId f) { return store.full_row(f); });
  }
  throw std::runtime_error("passfail_rows(store): bad store kind");
}

EngineDiagnosis diagnose_observed(const PassFailDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  return diagnose_samediff_impl(
      dict.num_faults(), dict.num_tests(),
      [&dict](FaultId f) { return dict.row(f).words().data(); },
      fault_free_baseline, observed, options,
      "diagnose_observed(pass/fail): observed tests");
}

EngineDiagnosis diagnose_observed(const SameDifferentDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  const auto& bl = dict.baselines();
  return diagnose_samediff_impl(
      dict.num_faults(), dict.num_tests(),
      [&dict](FaultId f) { return dict.row(f).words().data(); },
      [&bl](std::size_t t) { return bl[t]; }, observed, options,
      "diagnose_observed(same/different): observed tests");
}

EngineDiagnosis diagnose_observed(const MultiBaselineDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  const auto& bl = dict.baselines();
  return diagnose_multibaseline_impl(
      dict.num_faults(), dict.num_tests(), dict.baselines_per_test(),
      [&dict](FaultId f) { return dict.row(f).words().data(); },
      [&bl](std::size_t t) {
        return std::pair<const ResponseId*, std::size_t>{bl[t].data(),
                                                         bl[t].size()};
      },
      observed, options, "diagnose_observed(multi-baseline): observed tests");
}

EngineDiagnosis diagnose_observed(const FirstFailDictionary& dict,
                                  const ResponseMatrix& rm,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  check_observation_size("diagnose_observed(first-fail): observed tests",
                         dict.num_tests(), observed.size());
  check_observation_size("diagnose_observed(first-fail): matrix tests",
                         dict.num_tests(), rm.num_tests());
  // Response ids -> first-fail symbols (engine.h), then the full path.
  const auto untranslatable = static_cast<ResponseId>(dict.num_outputs() + 1);
  std::vector<Observed> symbols = observed;
  for (std::size_t t = 0; t < symbols.size(); ++t) {
    ResponseId& v = symbols[t].value;
    if (symbols[t].dont_care() || v == kUnknownResponse) continue;
    if (v == rm.fault_free_id(t))
      v = 0;
    else if (v >= rm.num_distinct(t))
      v = untranslatable;
    else
      v = 1 + static_cast<ResponseId>(rm.diff_outputs(t, v).front());
  }
  return diagnose_full_impl(
      dict.num_faults(), dict.num_tests(),
      [&dict](FaultId f) { return dict.row_entries(f); }, symbols, options,
      "diagnose_observed(first-fail): observed tests");
}

EngineDiagnosis diagnose_observed(const FullDictionary& dict,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  return diagnose_full_impl(
      dict.num_faults(), dict.num_tests(),
      [&dict](FaultId f) { return dict.row_entries(f); }, observed, options,
      "diagnose_observed(full): observed tests");
}

EngineDiagnosis diagnose_observed(const SignatureStore& store,
                                  const std::vector<Observed>& observed,
                                  const EngineOptions& options) {
  const auto row = [&store](FaultId f) { return store.row_words(f); };
  switch (store.kind()) {
    case StoreKind::kPassFail:
      return diagnose_samediff_impl(
          store.num_faults(), store.num_tests(), row, fault_free_baseline,
          observed, options, "diagnose_observed(store): observed tests");
    case StoreKind::kSameDifferent:
      return diagnose_samediff_impl(
          store.num_faults(), store.num_tests(), row,
          [&store](std::size_t t) { return store.baselines()[t]; }, observed,
          options, "diagnose_observed(store): observed tests");
    case StoreKind::kMultiBaseline:
      return diagnose_multibaseline_impl(
          store.num_faults(), store.num_tests(), store.rank(), row,
          [&store](std::size_t t) { return store.baseline_set(t); }, observed,
          options, "diagnose_observed(store): observed tests");
    case StoreKind::kFull:
      return diagnose_full_impl(
          store.num_faults(), store.num_tests(),
          [&store](FaultId f) { return store.full_row(f); }, observed, options,
          "diagnose_observed(store): observed tests");
  }
  throw std::runtime_error("diagnose_observed(store): bad store kind");
}

}  // namespace sddict
