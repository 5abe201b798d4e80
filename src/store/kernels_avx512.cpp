// AVX-512 kernels: 512-bit lanes, one VPTERNLOGQ for (row ^ obs) & care
// and a native per-word popcount (VPOPCNTQ). Requires F+BW+VL+VPOPCNTDQ at
// runtime — CPUs with a narrower AVX-512 subset are served by the AVX2
// table instead of an emulated vector popcount (dispatch() policy).
// Compiled with the matching -mavx512* flags in its own translation unit.
//
// Tails use maskz loads: architecturally, masked-off lanes are never
// touched, so reading the last partial 8-word group of an unpadded
// observation vector cannot fault or trip a sanitizer.
#include "store/kernels.h"

#if defined(SDDICT_KERNELS_AVX512)

#include <immintrin.h>

namespace sddict::kernels {

namespace {

// imm8 for (A ^ B) & C: (0xF0 ^ 0xCC) & 0xAA.
constexpr int kXorAndImm = 0x28;

std::uint32_t avx512_masked_hamming(const std::uint64_t* row,
                                    const std::uint64_t* obs,
                                    const std::uint64_t* care,
                                    std::size_t nwords) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= nwords; i += 8) {
    const __m512i v = _mm512_ternarylogic_epi64(
        _mm512_loadu_si512(row + i), _mm512_loadu_si512(obs + i),
        _mm512_loadu_si512(care + i), kXorAndImm);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  if (i < nwords) {
    const __mmask8 m = static_cast<__mmask8>((1u << (nwords - i)) - 1);
    const __m512i v = _mm512_ternarylogic_epi64(
        _mm512_maskz_loadu_epi64(m, row + i),
        _mm512_maskz_loadu_epi64(m, obs + i),
        _mm512_maskz_loadu_epi64(m, care + i), kXorAndImm);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  return static_cast<std::uint32_t>(_mm512_reduce_add_epi64(acc));
}

std::uint32_t avx512_masked_symbol_mismatches(const std::uint32_t* row,
                                              const std::uint32_t* obs,
                                              const std::uint8_t* care,
                                              std::size_t n) {
  const __m512i zero = _mm512_setzero_si512();
  std::uint32_t mism = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 neq = _mm512_cmpneq_epu32_mask(
        _mm512_loadu_si512(row + i), _mm512_loadu_si512(obs + i));
    const __m512i c32 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(care + i)));
    const __mmask16 cared = _mm512_cmpneq_epu32_mask(c32, zero);
    mism += static_cast<std::uint32_t>(
        __builtin_popcount(static_cast<unsigned>(neq & cared)));
  }
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __mmask16 neq = _mm512_mask_cmpneq_epu32_mask(
        m, _mm512_maskz_loadu_epi32(m, row + i),
        _mm512_maskz_loadu_epi32(m, obs + i));
    const __m512i c32 = _mm512_cvtepu8_epi32(
        _mm_maskz_loadu_epi8(m, care + i));
    const __mmask16 cared = _mm512_mask_cmpneq_epu32_mask(m, c32, zero);
    mism += static_cast<std::uint32_t>(
        __builtin_popcount(static_cast<unsigned>(neq & cared)));
  }
  return mism;
}

// Pairwise lane sums of two vectors: 128-bit block k of the result holds
// (a[2k] + a[2k+1], b[2k] + b[2k+1]).
inline __m512i pair_sums(__m512i a, __m512i b) {
  return _mm512_add_epi64(_mm512_unpacklo_epi64(a, b),
                          _mm512_unpackhi_epi64(a, b));
}

// Adds the two halves of every row pair in x and y: with x holding rows
// (r0, r1) and y rows (r2, r3) in each 128-bit block, the result's blocks
// 0-1 hold rows r0, r1 and blocks 2-3 rows r2, r3, each summed over half
// as many blocks.
inline __m512i block_sums(__m512i x, __m512i y) {
  return _mm512_add_epi64(_mm512_shuffle_i64x2(x, y, 0x88),
                          _mm512_shuffle_i64x2(x, y, 0xdd));
}

// Batched masked Hamming. A row of at most 8 words (every call of the
// engine's block sweep) is one masked load, one ternary-logic op and one
// popcount against an observation and care vector loaded once per call,
// and eight rows share one transposed lane reduction; wider rows call the
// per-row kernel above.
void avx512_masked_hamming_rows(const std::uint64_t* const* rows,
                                std::size_t nrows, const std::uint64_t* obs,
                                const std::uint64_t* care, std::size_t nwords,
                                std::uint32_t* out) {
  if (nwords > 8)
    return per_row_loop<&avx512_masked_hamming>(rows, nrows, obs, care, nwords,
                                                out);
  const __mmask8 m = static_cast<__mmask8>((1u << nwords) - 1);
  const __m512i o = _mm512_maskz_loadu_epi64(m, obs);
  const __m512i c = _mm512_maskz_loadu_epi64(m, care);
  const auto count = [&](const std::uint64_t* row) {
    return _mm512_popcnt_epi64(_mm512_ternarylogic_epi64(
        _mm512_maskz_loadu_epi64(m, row), o, c, kXorAndImm));
  };
  std::size_t r = 0;
  for (; r + 8 <= nrows; r += 8) {
    // Transposed reduction: lane i of the final vector is row r + i's sum.
    const __m512i p01 = pair_sums(count(rows[r]), count(rows[r + 1]));
    const __m512i p23 = pair_sums(count(rows[r + 2]), count(rows[r + 3]));
    const __m512i p45 = pair_sums(count(rows[r + 4]), count(rows[r + 5]));
    const __m512i p67 = pair_sums(count(rows[r + 6]), count(rows[r + 7]));
    const __m512i sums =
        block_sums(block_sums(p01, p23), block_sums(p45, p67));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r),
                        _mm512_cvtepi64_epi32(sums));
  }
  for (; r < nrows; ++r)
    out[r] = static_cast<std::uint32_t>(
        _mm512_reduce_add_epi64(count(rows[r])));
}

constexpr KernelTable kAvx512Table = {
    "avx512",
    &avx512_masked_hamming,
    &avx512_masked_symbol_mismatches,
    &avx512_masked_hamming_rows,
    &per_row_loop<&avx512_masked_symbol_mismatches>,
};

}  // namespace

const KernelTable* avx512_kernels() {
  return __builtin_cpu_supports("avx512f") &&
                 __builtin_cpu_supports("avx512bw") &&
                 __builtin_cpu_supports("avx512vl") &&
                 __builtin_cpu_supports("avx512vpopcntdq")
             ? &kAvx512Table
             : nullptr;
}

}  // namespace sddict::kernels

#endif  // SDDICT_KERNELS_AVX512
