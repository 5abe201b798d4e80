// Reference implementation of Procedure 1 with the paper's literal data
// structure: an explicit set P of target fault pairs, with dist(z) computed
// pair-by-pair (Step 3a verbatim). Quadratic in the number of faults —
// intended for validation against the partition-refinement implementation
// (core/baseline.h) and for small pedagogical examples, not for benchmarks.
// P holds only the pairs some test distinguishes, so it empties exactly
// when nothing can be split any more; the tests not reached by then keep
// the fault-free response, as in procedure1_single.
#pragma once

#include "core/baseline.h"

namespace sddict {

BaselineSelection procedure1_single_pairs(const ResponseMatrix& rm,
                                          const std::vector<std::size_t>& order,
                                          std::size_t lower);

}  // namespace sddict
