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
