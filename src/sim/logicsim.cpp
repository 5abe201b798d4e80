#include "sim/logicsim.h"

#include <stdexcept>

namespace sddict {

BatchSimulator::BatchSimulator(const Netlist& nl) : nl_(&nl) {
  if (nl.has_dffs())
    throw std::runtime_error("BatchSimulator: run full_scan first");
  values_.assign(nl.num_gates(), 0);
  nl.topo_order();  // precompute; also raises on cycles
}

void BatchSimulator::simulate(const std::vector<std::uint64_t>& input_words) {
  if (input_words.size() != nl_->num_inputs())
    throw std::invalid_argument("BatchSimulator: wrong input word count");
  for (std::size_t i = 0; i < input_words.size(); ++i)
    values_[nl_->inputs()[i]] = input_words[i];

  for (GateId g : nl_->topo_order()) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kInput) continue;
    values_[g] = eval_gate<std::uint64_t>(
        gate.type, gate.fanin.size(),
        [&](std::size_t p) { return values_[gate.fanin[p]]; });
  }
}

BitVec simulate_pattern(const Netlist& nl, const BitVec& input) {
  if (input.size() != nl.num_inputs())
    throw std::invalid_argument("simulate_pattern: wrong input width");
  BatchSimulator sim(nl);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = input.get(i) ? 1 : 0;
  sim.simulate(words);
  BitVec out(nl.num_outputs());
  for (std::size_t o = 0; o < nl.num_outputs(); ++o)
    out.set(o, (sim.value(nl.outputs()[o]) & 1) != 0);
  return out;
}

std::vector<BitVec> good_responses(const Netlist& nl, const TestSet& tests) {
  std::vector<BitVec> out(tests.size(), BitVec(nl.num_outputs()));
  BatchSimulator sim(nl);
  std::vector<std::uint64_t> input_words;
  for (std::size_t first = 0; first < tests.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    tests.pack_batch(first, count, &input_words);
    sim.simulate(input_words);
    for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
      const std::uint64_t w = sim.value(nl.outputs()[o]);
      for (std::size_t t = 0; t < count; ++t)
        out[first + t].set(o, (w >> t) & 1);
    }
  }
  return out;
}

}  // namespace sddict
