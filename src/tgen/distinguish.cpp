#include "tgen/distinguish.h"

#include "netlist/transform.h"

namespace sddict {

DistinguishStatus distinguish_pair(const Netlist& nl, const StuckFault& fa,
                                   const StuckFault& fb, BitVec* test, Rng& rng,
                                   const PodemOptions& options) {
  const Netlist miter = build_pair_miter(nl, to_injection(fa), to_injection(fb));
  Podem podem(miter, options);
  const GateId out = miter.outputs()[0];
  switch (podem.justify(out, true, test, rng)) {
    case PodemStatus::kTestFound:
      return DistinguishStatus::kFound;
    case PodemStatus::kUntestable:
      return DistinguishStatus::kIndistinguishable;
    case PodemStatus::kAborted:
      return DistinguishStatus::kAborted;
  }
  return DistinguishStatus::kAborted;
}

}  // namespace sddict
