// PODEM (Path-Oriented DEcision Making) automatic test pattern generation
// over a combinational netlist, in two modes sharing one search engine:
//
//  * generate(fault)   — classic stuck-at ATPG with the D-calculus realized
//                        as a pair of three-valued networks (good / faulty).
//  * justify(net, v)   — find an input vector setting a net to a value in
//                        the fault-free circuit; used on miter netlists for
//                        distinguishing-test generation.
//
// Decisions are made only on primary inputs, so the search is complete:
// kUntestable is returned only after the whole decision tree is refuted.
// Backtrace/objective selection use SCOAP-style controllability and a
// distance-to-output observability estimate, but any heuristic choice only
// affects speed, never correctness.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "netlist/netlist.h"
#include "tgen/valuesys.h"
#include "util/bitvec.h"
#include "util/budget.h"
#include "util/rng.h"

namespace sddict {

struct PodemOptions {
  // Decision flips allowed before giving up with kAborted.
  std::size_t backtrack_limit = 10000;
  // Unassigned inputs of a found test are filled randomly (default) or with 0.
  bool fill_random = true;
  // Deadline/cancellation for each generate()/justify() call; expiry makes
  // the search return kAborted. Callers running many ATPG calls under one
  // overall deadline refresh this per call (see BudgetScope::nested and
  // Podem::set_budget).
  RunBudget budget{};
};

enum class PodemStatus { kTestFound, kUntestable, kAborted };

class Podem {
 public:
  explicit Podem(const Netlist& nl, PodemOptions options = {});

  const Netlist& netlist() const { return *nl_; }

  // Finds a test detecting the stuck-at fault, or proves none exists.
  PodemStatus generate(const StuckFault& fault, BitVec* test, Rng& rng);

  // Finds an input vector giving `target` the value `value` in the
  // fault-free circuit, or proves the value unjustifiable.
  PodemStatus justify(GateId target, bool value, BitVec* test, Rng& rng);

  // Replaces the run budget of subsequent calls (deadline anchored per
  // call, so pass a remaining-time budget, not the overall one).
  void set_budget(const RunBudget& budget) { options_.budget = budget; }

  // Search-effort statistics of the last call.
  std::size_t last_backtracks() const { return backtracks_; }
  std::size_t last_decisions() const { return decisions_; }

 private:
  enum class Check { kSuccess, kFail, kContinue };
  struct Objective {
    GateId gate = kNoGate;
    bool value = false;
  };
  struct Decision {
    GateId pi;
    bool value;
    bool flipped;
    std::size_t trail_mark = 0;  // trail size before this assignment
  };
  struct TrailEntry {
    GateId gate;
    V3 good;
    V3 faulty;
  };

  PodemStatus run(BitVec* test, Rng& rng);
  Check check();
  bool pick_objective(Objective* obj);
  // Maps an objective to a PI assignment; false when no X-input is reachable.
  bool backtrace(Objective obj, Decision* out);
  bool fallback_pi(Decision* out);
  void extract_test(BitVec* test, Rng& rng);
  bool xpath_exists();

  // Event-driven implication: assigning a PI re-evaluates only its fanout
  // cone, recording previous values on an undo trail so backtracking costs
  // O(changes) instead of O(circuit).
  void eval_gate(GateId g, V3* good_out, V3* faulty_out) const;
  void record_and_set(GateId g, V3 new_good, V3 new_faulty);
  void propagate_from(GateId source);
  void assign_pi(GateId pi, V3 value);
  void undo_to(std::size_t trail_mark);
  void full_imply();

  void compute_controllability();
  void compute_observability();

  const Netlist* nl_;
  PodemOptions options_;

  bool fault_mode_ = false;
  StuckFault fault_{};
  GateId activation_gate_ = kNoGate;  // line whose good value must be !stuck
  GateId justify_gate_ = kNoGate;
  bool justify_value_ = false;

  std::vector<V3> pi_value_;  // indexed by gate id; meaningful for inputs
  std::vector<V3> good_;
  std::vector<V3> faulty_;
  std::vector<Decision> stack_;
  std::vector<TrailEntry> trail_;
  std::size_t backtracks_ = 0;
  std::size_t decisions_ = 0;

  std::vector<std::uint32_t> cc0_, cc1_;  // SCOAP-ish controllability
  std::vector<std::uint32_t> dist_po_;    // min gates to any primary output

  // Gates reachable from the fault site (only they can differ between the
  // two networks); X-path scans are restricted to this cone.
  std::vector<GateId> cone_;

  // Scratch for frontier / X-path / event propagation.
  std::vector<GateId> frontier_;
  std::vector<std::uint8_t> visit_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::vector<GateId>> level_queue_;
};

}  // namespace sddict
