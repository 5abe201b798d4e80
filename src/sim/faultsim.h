// Parallel-pattern single-fault-propagation (PPSFP) fault simulation by
// fanout-free region. A batch of up to 64 patterns is good-simulated once.
// A fanout-free region (FFR) is a tree of single-fanout gates ending at a
// root gate, and every path from a fault inside the region leaves through
// that root. A fault is therefore simulated in two parts: its effect is
// walked up the single-fanout chain to the root, giving the difference word
// d at the root, and the root's cone is event-driven re-simulated with the
// root complemented — once per (root, batch), shared by every fault of the
// region. The fault's difference word at output o is D_o & d, where D_o is
// the root's; this is exact for two-valued single stuck-at simulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/faultlist.h"
#include "netlist/netlist.h"
#include "sim/logicsim.h"

namespace sddict {

class FaultSimulator {
 public:
  explicit FaultSimulator(const Netlist& nl);

  const Netlist& netlist() const { return good_.netlist(); }

  // Good-simulates a batch (words as in BatchSimulator::simulate).
  // `num_patterns` is how many of the 64 slots carry real tests; difference
  // words are masked so unused slots never report detections.
  void load_batch(const std::vector<std::uint64_t>& input_words,
                  std::size_t num_patterns = 64);

  // Simulates one fault against the loaded batch. Calls
  // sink(output_index, diff_word) once for every output with a nonzero
  // difference word, in no particular order, and returns the OR of those
  // words (nonzero iff the fault is detected by some pattern in the batch).
  template <class Sink>
  std::uint64_t simulate_fault(const StuckFault& f, Sink&& sink) {
    GateId root;
    const std::uint64_t d = difference_at_root(f, &root);
    if (d == 0) return 0;
    const RootEffect& e = root_effect(root);
    if ((e.any & d) == 0) return 0;
    for (std::uint32_t i = e.begin; i < e.end; ++i) {
      const std::uint64_t w = arena_[i].word & d;
      if (w != 0) sink(static_cast<std::size_t>(arena_[i].output), w);
    }
    return e.any & d;
  }

  // Detection word only (no per-output callback).
  std::uint64_t detect_word(const StuckFault& f);

  // Full faulty value of every gate under the loaded batch (word per gate,
  // bit t = pattern t), e.g. for internal-net probing. Injects the fault and
  // event-driven re-simulates its whole fanout cone, so it also serves as
  // the oracle for the region-based path above. Costs one O(gates) copy on
  // top of the event-driven simulation.
  void simulate_fault_full(const StuckFault& f,
                           std::vector<std::uint64_t>* faulty_values);

  // Good value of a gate under the loaded batch.
  std::uint64_t good_value(GateId g) const { return good_.value(g); }

 private:
  // Output differences of one FFR root complemented on every real pattern
  // slot: arena_[begin, end) under batch `generation`, `any` their OR.
  struct RootEffect {
    std::uint64_t generation = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t any = 0;
  };
  struct OutputDiff {
    std::uint32_t output;
    std::uint64_t word;
  };

  // Netlist adjacency flattened into one id array with per-gate offsets,
  // so the inner loops read contiguous memory.
  struct Adjacency {
    std::vector<std::uint32_t> begin;  // num_gates + 1 offsets into ids
    std::vector<GateId> ids;
    std::span<const GateId> operator[](GateId g) const {
      return {ids.data() + begin[g], ids.data() + begin[g + 1]};
    }
  };

  // Value word of the fault site's output with the fault present.
  std::uint64_t site_value(const StuckFault& f) const;
  // Walks the fault's effect up its single-fanout chain; returns the masked
  // difference word at the region root (stored in *root), 0 as soon as the
  // effect dies out.
  std::uint64_t difference_at_root(const StuckFault& f, GateId* root) const;
  // The root's output differences under the loaded batch, computed on first
  // use in the batch.
  const RootEffect& root_effect(GateId root);
  void touch(GateId g, std::uint64_t v);
  void schedule_fanouts(GateId g);
  // Event-driven re-simulation of the fanout cone of touched_list_.front().
  void propagate();
  void reset_touched();

  BatchSimulator good_;
  std::uint64_t pattern_mask_ = ~std::uint64_t{0};
  std::vector<GateType> type_;
  Adjacency fanin_;
  Adjacency fanout_;
  std::vector<std::uint32_t> level_;
  std::vector<GateId> ffr_root_;
  // Faulty value of every gate: the good values with the gates on
  // touched_list_ overwritten. reset_touched restores them.
  std::vector<std::uint64_t> fval_;
  std::vector<GateId> touched_list_;
  // Event queue bucketed by logic level.
  std::vector<std::vector<GateId>> level_queue_;
  std::vector<std::uint8_t> queued_;
  // Root cache: indexed by gate id, valid while generation == generation_
  // (load_batch bumps it). Every root's outputs share one arena, cleared
  // per batch and reused across batches.
  std::uint64_t generation_ = 0;
  std::vector<RootEffect> root_effects_;
  std::vector<OutputDiff> arena_;
};

// Detection counts per fault over a whole test set (how many tests detect
// each fault) — the accounting n-detection test generation needs.
std::vector<std::uint32_t> count_detections(const Netlist& nl,
                                            const FaultList& faults,
                                            const TestSet& tests);

}  // namespace sddict
