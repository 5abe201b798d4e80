// Distinguishing-test (diagnostic) ATPG for a fault pair: builds the pair
// miter — two copies of the circuit with one fault injected in each, shared
// inputs, outputs XORed and OR-reduced — and justifies its output to 1.
// A satisfying vector is exactly a test under which the two faulty circuits
// produce different output vectors; proof of unjustifiability means the two
// faults are functionally indistinguishable (equivalent w.r.t. all inputs).
#pragma once

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "tgen/podem.h"

namespace sddict {

enum class DistinguishStatus { kFound, kIndistinguishable, kAborted };

DistinguishStatus distinguish_pair(const Netlist& nl, const StuckFault& fa,
                                   const StuckFault& fb, BitVec* test, Rng& rng,
                                   const PodemOptions& options = {});

}  // namespace sddict
