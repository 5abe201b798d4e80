#include "sim/faultsim.h"

#include <bit>
#include <stdexcept>

namespace sddict {

FaultSimulator::FaultSimulator(const Netlist& nl)
    : good_(nl), level_(nl.levels()) {
  const std::size_t n = nl.num_gates();
  type_.resize(n);
  fanin_.begin.assign(1, 0);
  fanout_.begin.assign(1, 0);
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    type_[g] = gate.type;
    fanin_.ids.insert(fanin_.ids.end(), gate.fanin.begin(), gate.fanin.end());
    fanin_.begin.push_back(static_cast<std::uint32_t>(fanin_.ids.size()));
    fanout_.ids.insert(fanout_.ids.end(), gate.fanout.begin(),
                       gate.fanout.end());
    fanout_.begin.push_back(static_cast<std::uint32_t>(fanout_.ids.size()));
  }
  // A gate is a region root unless it feeds exactly one fanin pin and is not
  // a primary output; otherwise it belongs to its single consumer's region.
  // Consumers come later in topological order, so walk it backwards.
  ffr_root_.resize(n);
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    const auto fanout = fanout_[g];
    ffr_root_[g] = fanout.size() != 1 || nl.is_output(g)
                       ? g
                       : ffr_root_[fanout.front()];
  }
  fval_.assign(n, 0);
  queued_.assign(n, 0);
  level_queue_.resize(nl.depth() + 1);
  root_effects_.resize(n);
}

void FaultSimulator::load_batch(const std::vector<std::uint64_t>& input_words,
                                std::size_t num_patterns) {
  if (num_patterns == 0 || num_patterns > 64)
    throw std::invalid_argument("load_batch: num_patterns must be in [1,64]");
  pattern_mask_ = num_patterns == 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << num_patterns) - 1;
  good_.simulate(input_words);
  fval_ = good_.values();
  ++generation_;
  arena_.clear();
}

std::uint64_t FaultSimulator::site_value(const StuckFault& f) const {
  const std::uint64_t cval = f.value ? ~std::uint64_t{0} : 0;
  if (f.is_output_fault()) return cval;
  // Pin fault: re-evaluate the site gate with one fanin forced.
  const auto fanin = fanin_[f.gate];
  const auto pin = static_cast<std::size_t>(f.pin);
  return eval_fanins(type_[f.gate], fanin.size(), [&](std::size_t p) {
    return p == pin ? cval : good_.value(fanin[p]);
  });
}

std::uint64_t FaultSimulator::difference_at_root(const StuckFault& f,
                                                 GateId* root) const {
  GateId g = f.gate;
  std::uint64_t v = site_value(f);
  std::uint64_t d = (v ^ good_.value(g)) & pattern_mask_;
  *root = ffr_root_[g];
  while (d != 0 && g != *root) {
    const GateId prev = g;
    g = fanout_[g].front();
    const auto fanin = fanin_[g];
    v = eval_fanins(type_[g], fanin.size(), [&](std::size_t p) {
      return fanin[p] == prev ? v : good_.value(fanin[p]);
    });
    d = (v ^ good_.value(g)) & pattern_mask_;
  }
  return d;
}

const FaultSimulator::RootEffect& FaultSimulator::root_effect(GateId root) {
  RootEffect& e = root_effects_[root];
  if (e.generation == generation_) return e;
  const Netlist& nl = netlist();
  e.generation = generation_;
  e.begin = static_cast<std::uint32_t>(arena_.size());
  e.any = 0;
  touch(root, good_.value(root) ^ pattern_mask_);
  propagate();
  for (GateId g : touched_list_) {
    if (!nl.is_output(g)) continue;
    const std::uint64_t diff = (fval_[g] ^ good_.value(g)) & pattern_mask_;
    if (diff == 0) continue;
    arena_.push_back({static_cast<std::uint32_t>(nl.output_index(g)), diff});
    e.any |= diff;
  }
  e.end = static_cast<std::uint32_t>(arena_.size());
  reset_touched();
  return e;
}

// Levelized propagation evaluates every gate at most once and never the
// gate it starts from, so each touched gate is listed exactly once.
void FaultSimulator::touch(GateId g, std::uint64_t v) {
  touched_list_.push_back(g);
  fval_[g] = v;
}

void FaultSimulator::schedule_fanouts(GateId g) {
  for (GateId s : fanout_[g]) {
    if (queued_[s]) continue;
    queued_[s] = 1;
    level_queue_[level_[s]].push_back(s);
  }
}

void FaultSimulator::propagate() {
  const GateId site = touched_list_.front();
  schedule_fanouts(site);
  for (std::size_t lvl = level_[site]; lvl < level_queue_.size(); ++lvl) {
    auto& bucket = level_queue_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      queued_[g] = 0;
      const auto fanin = fanin_[g];
      const std::uint64_t v = eval_fanins(
          type_[g], fanin.size(), [&](std::size_t p) { return fval_[fanin[p]]; });
      if (v == fval_[g]) continue;
      touch(g, v);
      schedule_fanouts(g);
    }
    bucket.clear();
  }
}

void FaultSimulator::reset_touched() {
  for (GateId g : touched_list_) fval_[g] = good_.value(g);
  touched_list_.clear();
}

std::uint64_t FaultSimulator::detect_word(const StuckFault& f) {
  GateId root;
  const std::uint64_t d = difference_at_root(f, &root);
  return d == 0 ? 0 : d & root_effect(root).any;
}

void FaultSimulator::simulate_fault_full(
    const StuckFault& f, std::vector<std::uint64_t>* faulty_values) {
  const std::uint64_t v = site_value(f);
  if (v != good_.value(f.gate)) {
    touch(f.gate, v);
    propagate();
  }
  *faulty_values = fval_;
  reset_touched();
}

std::vector<std::uint32_t> count_detections(const Netlist& nl,
                                            const FaultList& faults,
                                            const TestSet& tests) {
  std::vector<std::uint32_t> counts(faults.size(), 0);
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> input_words;
  for (std::size_t first = 0; first < tests.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    tests.pack_batch(first, count, &input_words);
    fsim.load_batch(input_words, count);
    for (FaultId i = 0; i < faults.size(); ++i) {
      const std::uint64_t w = fsim.detect_word(faults[i]);
      counts[i] += static_cast<std::uint32_t>(std::popcount(w));
    }
  }
  return counts;
}

}  // namespace sddict
