// Signature-matching kernels with runtime SIMD dispatch: the cycles of a
// diagnosis query go into Hamming distances between an observed signature
// and every fault's dictionary row, so these run as wide as the hardware
// allows. Three layers, each the correctness oracle of the one above:
//
//   per-bit *_reference loops  — the differential oracle (one branch per
//     position; bench_throughput and tests/test_store.cpp compare every
//     faster path against these before trusting a speedup);
//   scalar word-parallel loops — 64 positions per std::popcount; the
//     always-available fallback, and the oracle the SIMD variants are
//     differentially tested against on every tail width;
//   SIMD variants              — AVX2 (256-bit, shuffle-LUT popcount),
//     AVX-512 (512-bit, VPOPCNTDQ + one ternary-logic op per 8 words) and
//     NEON (128-bit, vcnt), each in its own translation unit compiled with
//     the matching -m flags.
//
// dispatch() picks the widest variant the running CPU supports — detected
// once via CPUID (__builtin_cpu_supports) on x86 / architecturally
// guaranteed NEON on aarch64 — and callers that care hoist the table out
// of their row loop. The free functions masked_hamming() etc. route
// through the dispatched table, so every existing caller inherits the
// SIMD path without code changes. SDDICT_KERNELS=scalar|avx2|avx512|neon
// overrides the choice (tests, CI, A/B timing); an unsupported override
// falls back to auto-detection with a warning rather than failing.
//
// The masked variants implement the engine's don't-care semantics
// (diag/engine.h): a position whose care bit/byte is 0 never counts as a
// mismatch, whatever the row holds; any non-zero care byte means "cared".
//
// The *_rows entries batch a kernel over many rows in one call: an array
// of row pointers (the dictionary's BitVec rows and the store's mmap'd
// rows alike) against one observation. The engine's ranking sweep passes
// a block of rows and the first bounded block of their width (below), so
// the per-row indirect call leaves the hot loop and a variant can load
// the observation once for all rows (AVX-512 does).
//
// The *_bounded wrappers are the top-k pruning primitive: they accumulate
// per fixed-size block (8 words / 64 symbol lanes) and abandon the row as
// soon as the running partial count — a lower bound on the final count,
// since counts only grow — exceeds the caller's limit. A return value
// <= limit is the exact count; a value > limit only promises the true
// count is also > limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sddict::kernels {

// Bit i of a packed row (BitVec word layout: bit i lives in word i>>6 at
// position i&63).
inline bool bit_at(const std::uint64_t* words, std::size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

// One implementation family of the hot kernels. All functions of a table
// agree bit-for-bit with the scalar table (and the per-bit
// references) on every input; only the instructions differ.
struct KernelTable {
  const char* name;  // "scalar", "avx2", "avx512", "neon"
  // popcount((row ^ obs) & care) over nwords lanes: mismatches over the
  // cared positions only.
  std::uint32_t (*masked_hamming)(const std::uint64_t* row,
                                  const std::uint64_t* obs,
                                  const std::uint64_t* care,
                                  std::size_t nwords);
  // Symbol-lane mismatch count for id-valued rows (full dictionary): the
  // number of positions t < n with care[t] != 0 and row[t] != obs[t].
  std::uint32_t (*masked_symbol_mismatches)(const std::uint32_t* row,
                                            const std::uint32_t* obs,
                                            const std::uint8_t* care,
                                            std::size_t n);
  // Batched forms: out[r] = masked_hamming(rows[r], obs, care, nwords)
  // and out[r] = masked_symbol_mismatches(rows[r], obs, care, n) for every
  // r < nrows. Rows may sit anywhere in memory (no stride is assumed).
  void (*masked_hamming_rows)(const std::uint64_t* const* rows,
                              std::size_t nrows, const std::uint64_t* obs,
                              const std::uint64_t* care, std::size_t nwords,
                              std::uint32_t* out);
  void (*masked_symbol_mismatches_rows)(const std::uint32_t* const* rows,
                                        std::size_t nrows,
                                        const std::uint32_t* obs,
                                        const std::uint8_t* care,
                                        std::size_t n, std::uint32_t* out);
};

// A *_rows entry as a plain loop over a per-row kernel: one direct call
// per row in place of the table's indirect one. Every entry but AVX-512's
// masked_hamming_rows is an instantiation, e.g.
// &per_row_loop<&scalar_masked_hamming> (Word and Care are deduced from
// the table entry's type).
template <auto PerRow, typename Word, typename Care>
void per_row_loop(const Word* const* rows, std::size_t nrows, const Word* obs,
                  const Care* care, std::size_t n, std::uint32_t* out) {
  for (std::size_t r = 0; r < nrows; ++r)
    out[r] = PerRow(rows[r], obs, care, n);
}

// The scalar word-parallel table: always available, the SIMD variants'
// differential oracle.
const KernelTable& scalar_kernels();

// SIMD tables, or nullptr when the variant was compiled out (non-x86 /
// non-ARM build) or the running CPU lacks the required extensions. The
// AVX-512 table requires F+BW+VL+VPOPCNTDQ — on CPUs with a narrower
// AVX-512 subset the dispatcher drops to AVX2 rather than emulating a
// vector popcount.
const KernelTable* avx2_kernels();
const KernelTable* avx512_kernels();
const KernelTable* neon_kernels();

// Every table usable on this machine, scalar first then in increasing
// width — the sweep the differential tests and bench_throughput iterate.
std::vector<const KernelTable*> supported_kernels();

// The table every query runs on: the widest supported variant, resolved
// once on first call (thereafter a plain load). Honors SDDICT_KERNELS.
const KernelTable& dispatch();

// Compatibility entry points: route through dispatch(). Hot loops should
// hoist `const KernelTable& k = dispatch();` instead of paying the
// first-call guard per row.
inline std::uint32_t masked_hamming(const std::uint64_t* row,
                                    const std::uint64_t* obs,
                                    const std::uint64_t* care,
                                    std::size_t nwords) {
  return dispatch().masked_hamming(row, obs, care, nwords);
}
inline std::uint32_t masked_symbol_mismatches(const std::uint32_t* row,
                                              const std::uint32_t* obs,
                                              const std::uint8_t* care,
                                              std::size_t n) {
  return dispatch().masked_symbol_mismatches(row, obs, care, n);
}

// Block sizes of the bounded kernels' early-exit checks. 8 words = 512
// bits = one AVX-512 iteration; 64 lanes keeps the check off the inner
// SIMD loop for the symbol kernel.
inline constexpr std::size_t kBoundedBlockWords = 8;
inline constexpr std::size_t kBoundedBlockLanes = 64;

// Bounded masked Hamming: exact count when the result is <= limit;
// abandons the row (returning the partial count, > limit) as soon as the
// per-block prefix sum exceeds limit. With limit == UINT32_MAX this is
// exactly k.masked_hamming over the whole row.
inline std::uint32_t masked_hamming_bounded(
    const KernelTable& k, const std::uint64_t* row, const std::uint64_t* obs,
    const std::uint64_t* care, std::size_t nwords, std::uint32_t limit) {
  if (limit == ~std::uint32_t{0}) return k.masked_hamming(row, obs, care, nwords);
  std::uint32_t n = 0;
  std::size_t i = 0;
  for (; i + kBoundedBlockWords <= nwords; i += kBoundedBlockWords) {
    n += k.masked_hamming(row + i, obs + i, care + i, kBoundedBlockWords);
    if (n > limit) return n;
  }
  if (i < nwords) n += k.masked_hamming(row + i, obs + i, care + i, nwords - i);
  return n;
}

// Bounded symbol-mismatch count; same contract over u32 lanes.
inline std::uint32_t masked_symbol_mismatches_bounded(
    const KernelTable& k, const std::uint32_t* row, const std::uint32_t* obs,
    const std::uint8_t* care, std::size_t n, std::uint32_t limit) {
  if (limit == ~std::uint32_t{0})
    return k.masked_symbol_mismatches(row, obs, care, n);
  std::uint32_t mism = 0;
  std::size_t i = 0;
  for (; i + kBoundedBlockLanes <= n; i += kBoundedBlockLanes) {
    mism += k.masked_symbol_mismatches(row + i, obs + i, care + i,
                                       kBoundedBlockLanes);
    if (mism > limit) return mism;
  }
  if (i < n) mism += k.masked_symbol_mismatches(row + i, obs + i, care + i,
                                                n - i);
  return mism;
}

// Rows per batched call in masked_hamming_strided.
inline constexpr std::size_t kRowBatch = 256;

// out[r] = k.masked_hamming(base + r * stride, obs, care, nwords) for
// every r < nrows, through the batched kernel kRowBatch rows per call: the
// full-width sweep over a packed row array (e.g. the engine's PassFailRows).
inline void masked_hamming_strided(const KernelTable& k,
                                   const std::uint64_t* base,
                                   std::size_t stride, std::size_t nrows,
                                   const std::uint64_t* obs,
                                   const std::uint64_t* care,
                                   std::size_t nwords, std::uint32_t* out) {
  const std::uint64_t* rows[kRowBatch];
  for (std::size_t b = 0; b < nrows; b += kRowBatch) {
    const std::size_t n = nrows - b < kRowBatch ? nrows - b : kRowBatch;
    for (std::size_t r = 0; r < n; ++r) rows[r] = base + (b + r) * stride;
    k.masked_hamming_rows(rows, n, obs, care, nwords, out + b);
  }
}

// Legacy per-position loops (one branch per bit/symbol): the differential
// oracle every table above is gated against.
std::uint32_t masked_hamming_reference(const std::uint64_t* row,
                                       const std::uint64_t* obs,
                                       const std::uint64_t* care,
                                       std::size_t nbits);
std::uint32_t masked_symbol_mismatches_reference(const std::uint32_t* row,
                                                 const std::uint32_t* obs,
                                                 const std::uint8_t* care,
                                                 std::size_t n);

}  // namespace sddict::kernels
