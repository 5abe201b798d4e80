// Parallel-pattern single-fault-propagation (PPSFP) fault simulation by
// fanout-free region. A batch of up to Lanes×64 patterns is good-simulated
// once, Lanes 64-bit words per gate with one pattern per bit.
// A fanout-free region (FFR) is a tree of single-fanout gates ending at a
// root gate, and every path from a fault inside the region leaves through
// that root. A fault is therefore simulated in two parts: its effect is
// walked up the single-fanout chain to the root, giving the difference word
// d at the root, and the root's cone is event-driven re-simulated with the
// root complemented — once per (root, batch), shared by every fault of the
// region. The fault's difference word at output o is D_o & d, where D_o is
// the root's; this is exact for two-valued single stuck-at simulation.
//
// One template serves every width. FaultSimulator is the one-lane
// instance (64 patterns, plain std::uint64_t words); build_response_matrix
// runs four lanes (256 patterns) so each region walk and each root cone is
// simulated once per 256 tests.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "fault/faultlist.h"
#include "netlist/netlist.h"
#include "sim/testset.h"

namespace sddict {

// Lanes 64-bit words of pattern bits: bit t of lane l is pattern 64l + t.
// The operators work lane by lane in plain loops the compiler vectorizes;
// the explicit bool conversion asks whether any bit is set.
template <std::size_t Lanes>
struct LaneWord {
  std::uint64_t lane[Lanes] = {};

  std::uint64_t& operator[](std::size_t l) { return lane[l]; }
  std::uint64_t operator[](std::size_t l) const { return lane[l]; }

  // Pattern t's bit.
  bool test(std::size_t t) const { return (lane[t / 64] >> (t % 64)) & 1; }
  // Calls f(t) for every set pattern bit t, in ascending order.
  template <class F>
  void for_each_set(F&& f) const {
    for (std::size_t l = 0; l < Lanes; ++l)
      for (std::uint64_t bits = lane[l]; bits != 0; bits &= bits - 1)
        f(64 * l + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  explicit operator bool() const {
    std::uint64_t any = 0;
    for (std::size_t l = 0; l < Lanes; ++l) any |= lane[l];
    return any != 0;
  }
  LaneWord& operator&=(const LaneWord& o) {
    for (std::size_t l = 0; l < Lanes; ++l) lane[l] &= o.lane[l];
    return *this;
  }
  LaneWord& operator|=(const LaneWord& o) {
    for (std::size_t l = 0; l < Lanes; ++l) lane[l] |= o.lane[l];
    return *this;
  }
  LaneWord& operator^=(const LaneWord& o) {
    for (std::size_t l = 0; l < Lanes; ++l) lane[l] ^= o.lane[l];
    return *this;
  }
  friend LaneWord operator&(LaneWord a, const LaneWord& b) { return a &= b; }
  friend LaneWord operator|(LaneWord a, const LaneWord& b) { return a |= b; }
  friend LaneWord operator^(LaneWord a, const LaneWord& b) { return a ^= b; }
  friend LaneWord operator~(LaneWord a) {
    for (std::size_t l = 0; l < Lanes; ++l) a.lane[l] = ~a.lane[l];
    return a;
  }
  // Branch-free: one OR of lane differences instead of a compare per lane.
  friend bool operator==(const LaneWord& a, const LaneWord& b) {
    std::uint64_t diff = 0;
    for (std::size_t l = 0; l < Lanes; ++l) diff |= a.lane[l] ^ b.lane[l];
    return diff == 0;
  }
};

// The per-gate value of a Lanes-wide simulation: a plain std::uint64_t for
// one lane, so the one-lane API reads and returns ordinary words.
template <std::size_t Lanes>
using PatternWord =
    std::conditional_t<Lanes == 1, std::uint64_t, LaneWord<Lanes>>;

// The word with the first n pattern bits set (all of them for n >= Lanes×64).
template <std::size_t Lanes>
PatternWord<Lanes> first_patterns(std::size_t n) {
  const auto low_bits = [](std::size_t bits) {
    return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  };
  if constexpr (Lanes == 1) {
    return low_bits(n);
  } else {
    LaneWord<Lanes> mask;
    for (std::size_t l = 0; l < Lanes; ++l)
      mask.lane[l] = low_bits(n > 64 * l ? n - 64 * l : 0);
    return mask;
  }
}

template <std::size_t Lanes>
class BasicFaultSimulator {
 public:
  static constexpr std::size_t kLanes = Lanes;
  static constexpr std::size_t kPatterns = Lanes * 64;
  using Word = PatternWord<Lanes>;

  // The netlist must be combinational (run full_scan first) and must
  // outlive the simulator.
  explicit BasicFaultSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  // Good-simulates a batch. input_words holds Lanes words per primary
  // input, input-major: word i×Lanes + l carries patterns 64l..64l+63 of
  // input i, the layout TestSet::pack_batch writes for `Lanes` lanes.
  // `num_patterns` is how many of the kPatterns slots carry real tests;
  // difference words are masked so unused slots never report detections.
  void load_batch(std::span<const std::uint64_t> input_words,
                  std::size_t num_patterns = kPatterns);

  // Simulates one fault against the loaded batch. Calls
  // sink(output_index, diff_word) once for every output with a nonzero
  // difference word, in no particular order, and returns the OR of those
  // words (nonzero iff the fault is detected by some pattern in the batch).
  template <class Sink>
  Word simulate_fault(const StuckFault& f, Sink&& sink) {
    Pos root;
    const Word d = difference_at_root(f, &root);
    if (!d) return Word{};
    const RootEffect& e = root_effect(root);
    const Word any = e.any & d;
    if (!any) return Word{};
    for (std::uint32_t i = e.begin; i < e.end; ++i) {
      const Word w = arena_[i].word & d;
      if (w) sink(static_cast<std::size_t>(arena_[i].output), w);
    }
    return any;
  }

  // Detection word only (no per-output callback).
  Word detect_word(const StuckFault& f);

  // Full faulty value of every gate under the loaded batch (word per gate,
  // pattern bits as in the batch), e.g. for internal-net probing. Injects
  // the fault and event-driven re-simulates its whole fanout cone, so it
  // also serves as the oracle for the region-based path above. Costs one
  // O(gates) copy on top of the event-driven simulation.
  void simulate_fault_full(const StuckFault& f,
                           std::vector<Word>* faulty_values);

  // Good value of a gate under the loaded batch.
  Word good_value(GateId g) const { return good_[pos_[g]]; }

 private:
  // A gate's position in the netlist's topological order. The simulator
  // renumbers gates by position: every per-gate array below is indexed by
  // it, so a cone's gates sit at increasing positions and propagation
  // visits them in one forward scan.
  using Pos = std::uint32_t;

  // Output differences of one FFR root complemented on every real pattern
  // slot: arena_[begin, end) under batch `generation`, `any` their OR.
  struct RootEffect {
    std::uint64_t generation = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    Word any{};
  };
  struct OutputDiff {
    std::uint32_t output;
    Word word;
  };

  // Netlist adjacency by position, flattened into one array with
  // per-position offsets so the inner loops read contiguous memory.
  struct Adjacency {
    std::vector<std::uint32_t> begin;  // num_gates + 1 offsets into ids
    std::vector<Pos> ids;
    std::span<const Pos> operator[](Pos p) const {
      return {ids.data() + begin[p], ids.data() + begin[p + 1]};
    }
  };

  // Value of the fault site's output with the fault present.
  Word site_value(const StuckFault& f) const;
  // Walks the fault's effect up its single-fanout chain; returns the masked
  // difference word at the region root (stored in *root), 0 as soon as the
  // effect dies out.
  Word difference_at_root(const StuckFault& f, Pos* root) const;
  // The root's output differences under the loaded batch, computed on first
  // use in the batch.
  const RootEffect& root_effect(Pos root);
  void touch(Pos p, const Word& v);
  void schedule_fanouts(Pos p);
  // Event-driven re-simulation of the fanout cone of touched_list_.front().
  void propagate();
  void reset_touched();

  const Netlist* nl_;
  Word pattern_mask_{};
  std::vector<GateId> gate_;  // position -> gate id
  std::vector<Pos> pos_;      // gate id -> position
  std::vector<GateType> type_;
  Adjacency fanin_;
  Adjacency fanout_;
  std::vector<std::int32_t> output_;  // primary output index, or -1
  std::vector<Pos> ffr_root_;
  // Good value of every gate under the loaded batch.
  std::vector<Word> good_;
  // Faulty value of every gate: the good values with the gates on
  // touched_list_ overwritten. reset_touched restores them.
  std::vector<Word> fval_;
  std::vector<Pos> touched_list_;
  // Positions scheduled for evaluation, one bit each; propagate scans them
  // upward, which is topological order.
  std::vector<std::uint64_t> pending_;
  std::size_t pending_last_ = 0;  // highest word of pending_ with a bit set
  // Root cache: indexed by position, valid while generation == generation_
  // (load_batch bumps it). Every root's outputs share one arena, cleared
  // per batch and reused across batches.
  std::uint64_t generation_ = 0;
  std::vector<RootEffect> root_effects_;
  std::vector<OutputDiff> arena_;
};

extern template class BasicFaultSimulator<1>;
extern template class BasicFaultSimulator<4>;

using FaultSimulator = BasicFaultSimulator<1>;

// Detection counts per fault over a whole test set (how many tests detect
// each fault) — the accounting n-detection test generation needs.
std::vector<std::uint32_t> count_detections(const Netlist& nl,
                                            const FaultList& faults,
                                            const TestSet& tests);

}  // namespace sddict
