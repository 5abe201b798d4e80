#include "core/hybrid.h"

#include <stdexcept>

#include "core/procedure2.h"
#include "core/sigset.h"
#include "dict/dictionary.h"

namespace sddict {

HybridResult hybridize_baselines(const ResponseMatrix& rm,
                                 std::vector<ResponseId> baselines) {
  const std::size_t n = rm.num_faults();
  const std::size_t k = rm.num_tests();
  if (baselines.size() != k)
    throw std::invalid_argument("hybridize_baselines: baseline count mismatch");

  std::vector<Hash128> sig = row_signatures(rm, baselines);
  SignatureMultiset ms;
  for (const Hash128& s : sig) ms.insert(s);

  std::vector<FaultId> changed;
  for (std::size_t j = 0; j < k; ++j) {
    if (baselines[j] == 0) continue;
    // Reverting to fault-free flips the rows of faults whose response is
    // the current baseline or the fault-free response.
    changed.clear();
    const auto col = rm.column(j);
    for (FaultId f = 0; f < n; ++f)
      if (col[f] == baselines[j] || col[f] == 0) changed.push_back(f);
    const std::uint64_t before = ms.duplicate_pairs();
    const Hash128 tok = test_token(j);
    for (FaultId f : changed) {
      ms.remove(sig[f]);
      sig[f] ^= tok;
      ms.insert(sig[f]);
    }
    if (ms.duplicate_pairs() <= before) {
      baselines[j] = 0;  // keep the reversion (no resolution lost)
    } else {
      for (FaultId f : changed) {
        ms.remove(sig[f]);
        sig[f] ^= tok;
        ms.insert(sig[f]);
      }
    }
  }

  HybridResult res;
  res.indistinguished_pairs = ms.duplicate_pairs();
  for (ResponseId b : baselines) res.stored_baselines += b != 0 ? 1 : 0;
  res.size_bits =
      hybrid_same_different_bits(k, n, rm.num_outputs(), res.stored_baselines);
  res.baselines = std::move(baselines);
  return res;
}

}  // namespace sddict
