// AVX2 kernels: 256-bit lanes, popcount via the nibble shuffle-LUT +
// psadbw reduction (Mula's method — no scalar popcount in the main loop).
// Compiled with -mavx2 in its own translation unit so the rest of the
// library stays baseline-ISA; runtime selection happens in dispatch().
//
// Row pointers are only 8-byte aligned (SignatureStore rows are whole
// 64-bit words, not cache lines) and the observation/care operands come
// from plain BitVec vectors, so every load is unaligned
// (_mm256_loadu_si256) — on every AVX2 core this costs nothing when the
// address happens to be aligned.
#include "store/kernels.h"

#if defined(SDDICT_KERNELS_AVX2)

#include <immintrin.h>

#include <bit>

namespace sddict::kernels {

namespace {

// Sums the four u64 lanes of an accumulator.
inline std::uint32_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
      static_cast<std::uint64_t>(_mm_extract_epi64(s, 1)));
}

// Per-byte popcount of v via two 16-entry nibble lookups.
inline __m256i popcount_epi8(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

std::uint32_t avx2_masked_hamming(const std::uint64_t* row,
                                  const std::uint64_t* obs,
                                  const std::uint64_t* care,
                                  std::size_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= nwords; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(obs + i))),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(care + i)));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(popcount_epi8(v),
                                           _mm256_setzero_si256()));
  }
  std::uint32_t n = hsum_epi64(acc);
  for (; i < nwords; ++i)
    n += static_cast<std::uint32_t>(std::popcount((row[i] ^ obs[i]) & care[i]));
  return n;
}

std::uint32_t avx2_masked_symbol_mismatches(const std::uint32_t* row,
                                            const std::uint32_t* obs,
                                            const std::uint8_t* care,
                                            std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  // acc counts per u32 lane via mask subtraction (an all-ones mismatch
  // lane adds 1); safe for any realistic n (< 2^32 lanes per query).
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i eq = _mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(obs + i)));
    const __m256i c32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(care + i)));
    const __m256i uncared = _mm256_cmpeq_epi32(c32, zero);
    // Mismatch <=> cared and not equal: ~(eq | uncared).
    const __m256i mism = _mm256_xor_si256(_mm256_or_si256(eq, uncared),
                                          _mm256_set1_epi32(-1));
    acc = _mm256_sub_epi32(acc, mism);
  }
  // Reduce the eight u32 lane counters.
  const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  const __m128i s2 = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  const __m128i s3 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0xb1));
  std::uint32_t mism = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s3));
  for (; i < n; ++i)
    mism += static_cast<std::uint32_t>((care[i] != 0) & (row[i] != obs[i]));
  return mism;
}

// Batched masked Hamming. A row of at most 4 words is one masked load
// (vpmaskmovq) against an observation and care vector loaded once per call,
// its per-word counts come from one psadbw, and four rows share one
// transposed lane reduction; wider rows call the per-row kernel above.
void avx2_masked_hamming_rows(const std::uint64_t* const* rows,
                              std::size_t nrows, const std::uint64_t* obs,
                              const std::uint64_t* care, std::size_t nwords,
                              std::uint32_t* out) {
  if (nwords > 4)
    return per_row_loop<&avx2_masked_hamming>(rows, nrows, obs, care, nwords,
                                              out);
  // Lane i is loaded iff i < nwords: vpmaskmovq reads each lane's sign bit
  // and never touches the memory of a masked-off lane.
  const __m256i m =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(nwords)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  const auto load = [&](const std::uint64_t* p) {
    return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), m);
  };
  const __m256i o = load(obs);
  const __m256i c = load(care);
  const __m256i zero = _mm256_setzero_si256();
  // Lane i: popcount((row ^ obs) & care) of word i.
  const auto count = [&](const std::uint64_t* row) {
    return _mm256_sad_epu8(
        popcount_epi8(_mm256_and_si256(_mm256_xor_si256(load(row), o), c)),
        zero);
  };
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t r = 0;
  for (; r + 4 <= nrows; r += 4) {
    const __m256i a = count(rows[r]);
    const __m256i b = count(rows[r + 1]);
    const __m256i x = count(rows[r + 2]);
    const __m256i y = count(rows[r + 3]);
    // Pairwise sums per 128-bit half: ab = (a0+a1, b0+b1 | a2+a3, b2+b3).
    const __m256i ab = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b),
                                        _mm256_unpackhi_epi64(a, b));
    const __m256i xy = _mm256_add_epi64(_mm256_unpacklo_epi64(x, y),
                                        _mm256_unpackhi_epi64(x, y));
    // Adding the low halves to the high halves leaves row r + i in lane i.
    const __m256i sums =
        _mm256_add_epi64(_mm256_permute2x128_si256(ab, xy, 0x20),
                         _mm256_permute2x128_si256(ab, xy, 0x31));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(sums, low_dwords)));
  }
  for (; r < nrows; ++r) out[r] = hsum_epi64(count(rows[r]));
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    &avx2_masked_hamming,
    &avx2_masked_symbol_mismatches,
    &avx2_masked_hamming_rows,
    &per_row_loop<&avx2_masked_symbol_mismatches>,
};

}  // namespace

const KernelTable* avx2_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
}

}  // namespace sddict::kernels

#endif  // SDDICT_KERNELS_AVX2
