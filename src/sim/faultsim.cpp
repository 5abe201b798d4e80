#include "sim/faultsim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace sddict {

namespace {

// The Lanes words of one input, as laid out by TestSet::pack_batch.
template <std::size_t Lanes>
PatternWord<Lanes> input_word(const std::uint64_t* lanes) {
  if constexpr (Lanes == 1) {
    return lanes[0];
  } else {
    LaneWord<Lanes> w;
    std::copy(lanes, lanes + Lanes, w.lane);
    return w;
  }
}

}  // namespace

template <std::size_t Lanes>
BasicFaultSimulator<Lanes>::BasicFaultSimulator(const Netlist& nl)
    : nl_(&nl), gate_(nl.topo_order()) {
  if (nl.has_dffs())
    throw std::runtime_error("FaultSimulator: run full_scan first");
  const std::size_t n = nl.num_gates();
  pos_.resize(n);
  for (Pos p = 0; p < n; ++p) pos_[gate_[p]] = p;
  type_.resize(n);
  output_.resize(n);
  fanin_.begin.assign(1, 0);
  fanout_.begin.assign(1, 0);
  for (Pos p = 0; p < n; ++p) {
    const GateId g = gate_[p];
    const Gate& gate = nl.gate(g);
    type_[p] = gate.type;
    output_[p] = nl.output_index(g);
    for (GateId f : gate.fanin) fanin_.ids.push_back(pos_[f]);
    fanin_.begin.push_back(static_cast<std::uint32_t>(fanin_.ids.size()));
    for (GateId s : gate.fanout) fanout_.ids.push_back(pos_[s]);
    fanout_.begin.push_back(static_cast<std::uint32_t>(fanout_.ids.size()));
  }
  // A gate is a region root unless it feeds exactly one fanin pin and is not
  // a primary output; otherwise it belongs to its single consumer's region.
  // Consumers come later in topological order, so walk it backwards.
  ffr_root_.resize(n);
  for (Pos p = static_cast<Pos>(n); p-- > 0;) {
    const auto fanout = fanout_[p];
    ffr_root_[p] =
        fanout.size() != 1 || output_[p] >= 0 ? p : ffr_root_[fanout.front()];
  }
  good_.assign(n, Word{});
  fval_.assign(n, Word{});
  pending_.assign((n + 63) / 64, 0);
  root_effects_.resize(n);
}

template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::load_batch(
    std::span<const std::uint64_t> input_words, std::size_t num_patterns) {
  if (num_patterns == 0 || num_patterns > kPatterns)
    throw std::invalid_argument(
        "load_batch: num_patterns must be in [1, lanes*64]");
  const Netlist& nl = *nl_;
  if (input_words.size() != nl.num_inputs() * Lanes)
    throw std::invalid_argument("load_batch: wrong input word count");
  pattern_mask_ = first_patterns<Lanes>(num_patterns);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    good_[pos_[nl.inputs()[i]]] =
        input_word<Lanes>(input_words.data() + i * Lanes);
  for (Pos p = 0; p < good_.size(); ++p) {
    if (type_[p] == GateType::kInput) continue;
    const auto fanin = fanin_[p];
    good_[p] = eval_gate<Word>(type_[p], fanin.size(),
                               [&](std::size_t i) { return good_[fanin[i]]; });
  }
  fval_ = good_;
  ++generation_;
  arena_.clear();
}

template <std::size_t Lanes>
auto BasicFaultSimulator<Lanes>::site_value(const StuckFault& f) const
    -> Word {
  const Word cval = f.value ? ~Word{} : Word{};
  if (f.is_output_fault()) return cval;
  // Pin fault: re-evaluate the site gate with one fanin forced.
  const Pos site = pos_[f.gate];
  const auto fanin = fanin_[site];
  const auto pin = static_cast<std::size_t>(f.pin);
  return eval_gate<Word>(type_[site], fanin.size(), [&](std::size_t i) {
    return i == pin ? cval : good_[fanin[i]];
  });
}

template <std::size_t Lanes>
auto BasicFaultSimulator<Lanes>::difference_at_root(const StuckFault& f,
                                                    Pos* root) const -> Word {
  Pos p = pos_[f.gate];
  Word v = site_value(f);
  Word d = (v ^ good_[p]) & pattern_mask_;
  *root = ffr_root_[p];
  while (d && p != *root) {
    const Pos prev = p;
    p = fanout_[p].front();
    const auto fanin = fanin_[p];
    v = eval_gate<Word>(type_[p], fanin.size(), [&](std::size_t i) {
      return fanin[i] == prev ? v : good_[fanin[i]];
    });
    d = (v ^ good_[p]) & pattern_mask_;
  }
  return d;
}

template <std::size_t Lanes>
auto BasicFaultSimulator<Lanes>::root_effect(Pos root) -> const RootEffect& {
  RootEffect& e = root_effects_[root];
  if (e.generation == generation_) return e;
  e.generation = generation_;
  e.begin = static_cast<std::uint32_t>(arena_.size());
  e.any = Word{};
  touch(root, good_[root] ^ pattern_mask_);
  propagate();
  for (Pos p : touched_list_) {
    if (output_[p] < 0) continue;
    const Word diff = (fval_[p] ^ good_[p]) & pattern_mask_;
    if (!diff) continue;
    arena_.push_back({static_cast<std::uint32_t>(output_[p]), diff});
    e.any |= diff;
  }
  e.end = static_cast<std::uint32_t>(arena_.size());
  reset_touched();
  return e;
}

// Propagation evaluates every gate at most once and never the gate it
// starts from, so each touched gate is listed exactly once.
template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::touch(Pos p, const Word& v) {
  touched_list_.push_back(p);
  fval_[p] = v;
}

template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::schedule_fanouts(Pos p) {
  for (Pos s : fanout_[p]) {
    pending_[s / 64] |= std::uint64_t{1} << (s % 64);
    pending_last_ = std::max<std::size_t>(pending_last_, s / 64);
  }
}

// Fanouts sit at higher positions than their drivers, so scanning the
// pending bits upward evaluates every gate after all of its fanins.
template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::propagate() {
  const Pos site = touched_list_.front();
  pending_last_ = 0;
  schedule_fanouts(site);
  for (std::size_t w = site / 64; w <= pending_last_; ++w) {
    while (pending_[w] != 0) {
      const auto p = static_cast<Pos>(64 * w + std::countr_zero(pending_[w]));
      pending_[w] &= pending_[w] - 1;
      const auto fanin = fanin_[p];
      const Word v = eval_gate<Word>(
          type_[p], fanin.size(), [&](std::size_t i) { return fval_[fanin[i]]; });
      if (v == fval_[p]) continue;
      touch(p, v);
      schedule_fanouts(p);
    }
  }
}

template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::reset_touched() {
  for (Pos p : touched_list_) fval_[p] = good_[p];
  touched_list_.clear();
}

template <std::size_t Lanes>
auto BasicFaultSimulator<Lanes>::detect_word(const StuckFault& f) -> Word {
  Pos root;
  const Word d = difference_at_root(f, &root);
  return d ? d & root_effect(root).any : Word{};
}

template <std::size_t Lanes>
void BasicFaultSimulator<Lanes>::simulate_fault_full(
    const StuckFault& f, std::vector<Word>* faulty_values) {
  const Pos site = pos_[f.gate];
  const Word v = site_value(f);
  if (v != good_[site]) {
    touch(site, v);
    propagate();
  }
  faulty_values->resize(fval_.size());
  for (Pos p = 0; p < fval_.size(); ++p) (*faulty_values)[gate_[p]] = fval_[p];
  reset_touched();
}

template class BasicFaultSimulator<1>;
template class BasicFaultSimulator<4>;

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
