// 64-way bit-parallel two-valued logic simulation of a combinational
// netlist: one machine word per gate carries the value of up to 64 test
// patterns simultaneously.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/testset.h"
#include "util/bitvec.h"

namespace sddict {

// Evaluates a gate of the given type and arity on the words value_of(p) of
// its fanin pins p: the one fanin gather shared by good and faulty
// simulation. Gates of up to 64 fanins gather on the stack; wider ones
// spill to the heap.
template <class ValueOf>
std::uint64_t eval_fanins(GateType type, std::size_t arity,
                          ValueOf&& value_of) {
  std::uint64_t buf[64];
  std::vector<std::uint64_t> wide;
  std::uint64_t* in = buf;
  if (arity > 64) {
    wide.resize(arity);
    in = wide.data();
  }
  for (std::size_t p = 0; p < arity; ++p) in[p] = value_of(p);
  return eval_gate_words(type, in, arity);
}

class BatchSimulator {
 public:
  // The netlist must be combinational (run full_scan first) and must
  // outlive the simulator.
  explicit BatchSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  // Simulates one batch; input_words has one word per primary input, bit t
  // of word i = value of input i in pattern t.
  void simulate(const std::vector<std::uint64_t>& input_words);

  std::uint64_t value(GateId g) const { return values_[g]; }
  const std::vector<std::uint64_t>& values() const { return values_; }

 private:
  const Netlist* nl_;
  std::vector<std::uint64_t> values_;
};

// Convenience: single-pattern good simulation; returns the output vector.
BitVec simulate_pattern(const Netlist& nl, const BitVec& input);

// Good output vectors for every test in the set (row j = z_ff,j).
std::vector<BitVec> good_responses(const Netlist& nl, const TestSet& tests);

}  // namespace sddict
