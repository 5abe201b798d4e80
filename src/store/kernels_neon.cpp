// NEON kernels: 128-bit lanes, popcount via vcnt + widening pairwise adds.
// NEON (AdvSIMD) is architecturally mandatory on AArch64, so the runtime
// check is a constant — the table exists whenever this TU is compiled in
// (HWCAP probing would only matter for 32-bit ARM, which the build skips).
#include "store/kernels.h"

#if defined(SDDICT_KERNELS_NEON)

#include <arm_neon.h>

#include <bit>

namespace sddict::kernels {

namespace {

// popcount of one 128-bit vector, as a u64.
inline std::uint64_t popcount_u64x2(uint8x16_t v) {
  return vaddvq_u64(vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
}

std::uint32_t neon_masked_hamming(const std::uint64_t* row,
                                  const std::uint64_t* obs,
                                  const std::uint64_t* care,
                                  std::size_t nwords) {
  std::uint64_t n = 0;
  std::size_t i = 0;
  for (; i + 2 <= nwords; i += 2) {
    const uint64x2_t v = vandq_u64(
        veorq_u64(vld1q_u64(row + i), vld1q_u64(obs + i)),
        vld1q_u64(care + i));
    n += popcount_u64x2(vreinterpretq_u8_u64(v));
  }
  for (; i < nwords; ++i)
    n += static_cast<std::uint64_t>(
        std::popcount((row[i] ^ obs[i]) & care[i]));
  return static_cast<std::uint32_t>(n);
}

std::uint32_t neon_masked_symbol_mismatches(const std::uint32_t* row,
                                            const std::uint32_t* obs,
                                            const std::uint8_t* care,
                                            std::size_t n) {
  uint32x4_t acc = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint8x8_t c8 = vld1_u8(care + i);
    const uint16x8_t c16 = vmovl_u8(c8);
    const uint32x4_t c_lo = vmovl_u16(vget_low_u16(c16));
    const uint32x4_t c_hi = vmovl_u16(vget_high_u16(c16));
    const uint32x4_t eq_lo = vceqq_u32(vld1q_u32(row + i), vld1q_u32(obs + i));
    const uint32x4_t eq_hi =
        vceqq_u32(vld1q_u32(row + i + 4), vld1q_u32(obs + i + 4));
    // Mismatch lane: cared (c > 0) AND NOT equal; the all-ones mask
    // subtracts as -1, i.e. adds 1 to the lane counter.
    acc = vsubq_u32(acc, vbicq_u32(vcgtq_u32(c_lo, vdupq_n_u32(0)), eq_lo));
    acc = vsubq_u32(acc, vbicq_u32(vcgtq_u32(c_hi, vdupq_n_u32(0)), eq_hi));
  }
  std::uint32_t mism = vaddvq_u32(acc);
  for (; i < n; ++i)
    mism += static_cast<std::uint32_t>((care[i] != 0) & (row[i] != obs[i]));
  return mism;
}

constexpr KernelTable kNeonTable = {
    "neon",
    &neon_masked_hamming,
    &neon_masked_symbol_mismatches,
    &per_row_loop<&neon_masked_hamming>,
    &per_row_loop<&neon_masked_symbol_mismatches>,
};

}  // namespace

const KernelTable* neon_kernels() { return &kNeonTable; }

}  // namespace sddict::kernels

#endif  // SDDICT_KERNELS_NEON
