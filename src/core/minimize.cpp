#include "core/minimize.h"

#include <algorithm>
#include <stdexcept>

#include "core/sigset.h"

namespace sddict {
namespace {

// Generic reverse-greedy elimination over per-test column tokens.
// token_of(f, j) is column j's contribution to fault f's row signature.
// Dropping a column can only coarsen the row partition, so an unchanged
// duplicate-pair count proves the partition is exactly preserved.
template <typename TokenOf>
MinimizeResult minimize_impl(std::size_t num_faults, std::size_t num_tests,
                             TokenOf&& token_of) {
  std::vector<Hash128> sig(num_faults);
  for (std::size_t j = 0; j < num_tests; ++j)
    for (FaultId f = 0; f < num_faults; ++f) sig[f] ^= token_of(f, j);
  SignatureMultiset ms;
  for (const Hash128& s : sig) ms.insert(s);
  const std::uint64_t target = ms.duplicate_pairs();

  std::vector<bool> kept(num_tests, true);
  MinimizeResult res;
  for (std::size_t j = num_tests; j-- > 0;) {
    for (FaultId f = 0; f < num_faults; ++f) {
      const Hash128 tok = token_of(f, j);
      if (tok == Hash128{}) continue;
      ms.remove(sig[f]);
      sig[f] ^= tok;
      ms.insert(sig[f]);
    }
    if (ms.duplicate_pairs() == target) {
      kept[j] = false;  // column was redundant
      ++res.dropped;
    } else {
      for (FaultId f = 0; f < num_faults; ++f) {
        const Hash128 tok = token_of(f, j);
        if (tok == Hash128{}) continue;
        ms.remove(sig[f]);
        sig[f] ^= tok;
        ms.insert(sig[f]);
      }
    }
  }
  for (std::size_t j = 0; j < num_tests; ++j)
    if (kept[j]) res.kept_tests.push_back(j);
  res.indistinguished_pairs = target;
  return res;
}

}  // namespace

MinimizeResult minimize_tests_full(const ResponseMatrix& rm) {
  return minimize_impl(rm.num_faults(), rm.num_tests(),
                       [&](FaultId f, std::size_t j) {
                         const ResponseId r = rm.response(f, j);
                         // Response 0 maps to the zero token so untouched
                         // (all-pass) columns are free to drop.
                         return r == 0 ? Hash128{} : slot_token(j, r);
                       });
}

MinimizeResult minimize_tests_samediff(
    const ResponseMatrix& rm, const std::vector<ResponseId>& baselines) {
  if (baselines.size() != rm.num_tests())
    throw std::invalid_argument("minimize_tests_samediff: baseline count");
  return minimize_impl(rm.num_faults(), rm.num_tests(),
                       [&](FaultId f, std::size_t j) {
                         return rm.response(f, j) != baselines[j]
                                    ? test_token(j)
                                    : Hash128{};
                       });
}

}  // namespace sddict
