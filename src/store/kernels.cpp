#include "store/kernels.h"

#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/log.h"

namespace sddict::kernels {

namespace {

// ------------------------------------------------------- scalar fallback --
// Word-parallel loops: 64 positions per std::popcount. These were the hot
// kernels before the SIMD layer and are now the always-available fallback
// and the SIMD variants' differential oracle.

std::uint32_t scalar_masked_hamming(const std::uint64_t* row,
                                    const std::uint64_t* obs,
                                    const std::uint64_t* care,
                                    std::size_t nwords) {
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < nwords; ++i)
    n += static_cast<std::uint32_t>(std::popcount((row[i] ^ obs[i]) & care[i]));
  return n;
}

std::uint32_t scalar_masked_symbol_mismatches(const std::uint32_t* row,
                                              const std::uint32_t* obs,
                                              const std::uint8_t* care,
                                              std::size_t n) {
  std::uint32_t mism = 0;
  // (care[t] != 0), not care[t] itself: any non-zero care byte means the
  // lane is cared. Masking with the raw byte dropped mismatches for even
  // care values (2, 0x80, ...) — the contract every SIMD variant inherits
  // is the reference loop's, and this stays branch-free.
  for (std::size_t t = 0; t < n; ++t)
    mism += static_cast<std::uint32_t>((care[t] != 0) & (row[t] != obs[t]));
  return mism;
}

constexpr KernelTable kScalarTable = {
    "scalar",
    &scalar_masked_hamming,
    &scalar_masked_symbol_mismatches,
    &per_row_loop<&scalar_masked_hamming>,
    &per_row_loop<&scalar_masked_symbol_mismatches>,
};

const KernelTable* pick(const char* forced) {
  if (forced != nullptr && *forced != '\0') {
    for (const KernelTable* t : supported_kernels())
      if (std::strcmp(t->name, forced) == 0) return t;
    log_message(LogLevel::kWarn, std::string("kernels: SDDICT_KERNELS=") +
                                     forced +
                                     " is not supported on this machine; "
                                     "auto-detecting");
  }
  if (const KernelTable* t = avx512_kernels()) return t;
  if (const KernelTable* t = avx2_kernels()) return t;
  if (const KernelTable* t = neon_kernels()) return t;
  return &scalar_kernels();
}

}  // namespace

const KernelTable& scalar_kernels() { return kScalarTable; }

#if !defined(SDDICT_KERNELS_AVX2)
const KernelTable* avx2_kernels() { return nullptr; }
#endif
#if !defined(SDDICT_KERNELS_AVX512)
const KernelTable* avx512_kernels() { return nullptr; }
#endif
#if !defined(SDDICT_KERNELS_NEON)
const KernelTable* neon_kernels() { return nullptr; }
#endif

std::vector<const KernelTable*> supported_kernels() {
  std::vector<const KernelTable*> tables{&scalar_kernels()};
  if (const KernelTable* t = neon_kernels()) tables.push_back(t);
  if (const KernelTable* t = avx2_kernels()) tables.push_back(t);
  if (const KernelTable* t = avx512_kernels()) tables.push_back(t);
  return tables;
}

const KernelTable& dispatch() {
  // Resolved once; std::getenv at static-init time is safe here because the
  // first caller is always a query path, never a static constructor.
  static const KernelTable* const chosen = pick(std::getenv("SDDICT_KERNELS"));
  return *chosen;
}

// ------------------------------------------------------ per-bit oracles --

std::uint32_t masked_hamming_reference(const std::uint64_t* row,
                                       const std::uint64_t* obs,
                                       const std::uint64_t* care,
                                       std::size_t nbits) {
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < nbits; ++i)
    if (bit_at(care, i) && bit_at(row, i) != bit_at(obs, i)) ++n;
  return n;
}

std::uint32_t masked_symbol_mismatches_reference(const std::uint32_t* row,
                                                 const std::uint32_t* obs,
                                                 const std::uint8_t* care,
                                                 std::size_t n) {
  std::uint32_t mism = 0;
  for (std::size_t t = 0; t < n; ++t)
    if (care[t] && row[t] != obs[t]) ++mism;
  return mism;
}

}  // namespace sddict::kernels
