#include "tgen/podem.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sddict {
namespace {

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 4;

std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) {
  return std::min<std::uint64_t>(kInf, std::uint64_t{a} + b);
}

}  // namespace

Podem::Podem(const Netlist& nl, PodemOptions options)
    : nl_(&nl), options_(options) {
  if (nl.has_dffs()) throw std::runtime_error("Podem: run full_scan first");
  const std::size_t n = nl.num_gates();
  pi_value_.assign(n, kVX);
  good_.assign(n, kVX);
  faulty_.assign(n, kVX);
  visit_.assign(n, 0);
  queued_.assign(n, 0);
  level_queue_.resize(nl.depth() + 1);
  compute_controllability();
  compute_observability();
}

void Podem::compute_controllability() {
  const std::size_t n = nl_->num_gates();
  cc0_.assign(n, kInf);
  cc1_.assign(n, kInf);
  for (GateId g : nl_->topo_order()) {
    const Gate& gate = nl_->gate(g);
    switch (gate.type) {
      case GateType::kInput:
        cc0_[g] = cc1_[g] = 1;
        break;
      case GateType::kConst0:
        cc0_[g] = 0;
        cc1_[g] = kInf;
        break;
      case GateType::kConst1:
        cc0_[g] = kInf;
        cc1_[g] = 0;
        break;
      case GateType::kBuf:
        cc0_[g] = sat_add(cc0_[gate.fanin[0]], 1);
        cc1_[g] = sat_add(cc1_[gate.fanin[0]], 1);
        break;
      case GateType::kNot:
        cc0_[g] = sat_add(cc1_[gate.fanin[0]], 1);
        cc1_[g] = sat_add(cc0_[gate.fanin[0]], 1);
        break;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = controlling_value(gate.type);
        // Controlled response: cheapest single controlling input. Other
        // value: every input at the non-controlling value.
        std::uint32_t cheapest = kInf;
        std::uint32_t all = 1;
        for (GateId f : gate.fanin) {
          const std::uint32_t c_ctrl = cv ? cc1_[f] : cc0_[f];
          const std::uint32_t c_non = cv ? cc0_[f] : cc1_[f];
          cheapest = std::min(cheapest, c_ctrl);
          all = sat_add(all, c_non);
        }
        cheapest = sat_add(cheapest, 1);
        if (controlled_response(gate.type)) {
          cc1_[g] = cheapest;
          cc0_[g] = all;
        } else {
          cc0_[g] = cheapest;
          cc1_[g] = all;
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Pairwise fold of the exact 2-input XOR SCOAP rule.
        std::uint32_t a0 = cc0_[gate.fanin[0]];
        std::uint32_t a1 = cc1_[gate.fanin[0]];
        for (std::size_t i = 1; i < gate.fanin.size(); ++i) {
          const std::uint32_t b0 = cc0_[gate.fanin[i]];
          const std::uint32_t b1 = cc1_[gate.fanin[i]];
          const std::uint32_t even = std::min(sat_add(a0, b0), sat_add(a1, b1));
          const std::uint32_t odd = std::min(sat_add(a0, b1), sat_add(a1, b0));
          a0 = even;
          a1 = odd;
        }
        if (gate.type == GateType::kXor) {
          cc0_[g] = sat_add(a0, 1);
          cc1_[g] = sat_add(a1, 1);
        } else {
          cc0_[g] = sat_add(a1, 1);
          cc1_[g] = sat_add(a0, 1);
        }
        break;
      }
      case GateType::kDff:
        throw std::logic_error("Podem: DFF in combinational netlist");
    }
  }
}

void Podem::compute_observability() {
  const std::size_t n = nl_->num_gates();
  dist_po_.assign(n, kInf);
  std::vector<GateId> queue;
  for (GateId g : nl_->outputs())
    if (dist_po_[g] == kInf) {
      dist_po_[g] = 0;
      queue.push_back(g);
    }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const GateId g = queue[head];
    for (GateId f : nl_->gate(g).fanin)
      if (dist_po_[f] == kInf) {
        dist_po_[f] = dist_po_[g] + 1;
        queue.push_back(f);
      }
  }
}

// ---------------------------------------------------------------------------
// Event-driven implication with an undo trail.
//
// Values are pure functions of the primary inputs (plus the forced fault
// site), so assigning one PI only disturbs its fanout cone: propagation
// walks that cone level by level, recording previous values on a trail so
// a backtrack restores state in O(changes) instead of O(circuit).
// ---------------------------------------------------------------------------

void Podem::eval_gate(GateId g, V3* good_out, V3* faulty_out) const {
  const Gate& gate = nl_->gate(g);
  if (gate.type == GateType::kInput) {
    *good_out = pi_value_[g];
    *faulty_out = fault_mode_ && fault_.is_output_fault() && fault_.gate == g
                      ? v3_from_bool(fault_.value != 0)
                      : pi_value_[g];
    return;
  }
  const std::size_t arity = gate.fanin.size();
  V3 buf[64];
  std::vector<V3> big;
  const V3* in;
  if (arity <= 64) {
    for (std::size_t p = 0; p < arity; ++p) buf[p] = good_[gate.fanin[p]];
    in = buf;
  } else {
    big.resize(arity);
    for (std::size_t p = 0; p < arity; ++p) big[p] = good_[gate.fanin[p]];
    in = big.data();
  }
  *good_out = eval_gate_v3(gate.type, in, arity);

  if (!fault_mode_) {
    *faulty_out = *good_out;
    return;
  }
  if (fault_.is_output_fault() && fault_.gate == g) {
    *faulty_out = v3_from_bool(fault_.value != 0);
    return;
  }
  V3 fbuf[64];
  std::vector<V3> fbig;
  const V3* fin;
  if (arity <= 64) {
    for (std::size_t p = 0; p < arity; ++p) fbuf[p] = faulty_[gate.fanin[p]];
    fin = fbuf;
  } else {
    fbig.resize(arity);
    for (std::size_t p = 0; p < arity; ++p) fbig[p] = faulty_[gate.fanin[p]];
    fin = fbig.data();
  }
  if (!fault_.is_output_fault() && fault_.gate == g) {
    if (arity <= 64)
      fbuf[static_cast<std::size_t>(fault_.pin)] = v3_from_bool(fault_.value != 0);
    else
      fbig[static_cast<std::size_t>(fault_.pin)] = v3_from_bool(fault_.value != 0);
  }
  *faulty_out = eval_gate_v3(gate.type, fin, arity);
}

void Podem::record_and_set(GateId g, V3 new_good, V3 new_faulty) {
  trail_.push_back({g, good_[g], faulty_[g]});
  good_[g] = new_good;
  faulty_[g] = new_faulty;
}

void Podem::propagate_from(GateId source) {
  const auto& levels = nl_->levels();
  for (GateId s : nl_->gate(source).fanout)
    if (!queued_[s]) {
      queued_[s] = 1;
      level_queue_[levels[s]].push_back(s);
    }
  for (std::size_t lvl = levels[source]; lvl < level_queue_.size(); ++lvl) {
    auto& bucket = level_queue_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId g = bucket[i];
      queued_[g] = 0;
      V3 ng, nf;
      eval_gate(g, &ng, &nf);
      if (ng == good_[g] && nf == faulty_[g]) continue;
      record_and_set(g, ng, nf);
      for (GateId s : nl_->gate(g).fanout)
        if (!queued_[s]) {
          queued_[s] = 1;
          level_queue_[levels[s]].push_back(s);
        }
    }
    bucket.clear();
  }
}

void Podem::assign_pi(GateId pi, V3 value) {
  pi_value_[pi] = value;
  V3 ng, nf;
  eval_gate(pi, &ng, &nf);
  if (ng == good_[pi] && nf == faulty_[pi]) return;
  record_and_set(pi, ng, nf);
  propagate_from(pi);
}

void Podem::undo_to(std::size_t trail_mark) {
  while (trail_.size() > trail_mark) {
    const TrailEntry& e = trail_.back();
    good_[e.gate] = e.good;
    faulty_[e.gate] = e.faulty;
    trail_.pop_back();
  }
}

void Podem::full_imply() {
  trail_.clear();
  for (GateId g : nl_->topo_order()) {
    V3 ng, nf;
    eval_gate(g, &ng, &nf);
    good_[g] = ng;
    faulty_[g] = nf;
  }
}

// ---------------------------------------------------------------------------

Podem::Check Podem::check() {
  if (!fault_mode_) {
    const V3 v = good_[justify_gate_];
    if (!is_definite(v)) return Check::kContinue;
    return v3_to_bool(v) == justify_value_ ? Check::kSuccess : Check::kFail;
  }

  // Activation line must carry the opposite of the stuck value.
  const V3 act = good_[activation_gate_];
  if (is_definite(act) && v3_to_bool(act) == (fault_.value != 0))
    return Check::kFail;

  // Success: a definite good/faulty difference at some primary output.
  for (GateId po : nl_->outputs()) {
    if (is_definite(good_[po]) && is_definite(faulty_[po]) &&
        good_[po] != faulty_[po])
      return Check::kSuccess;
  }

  if (!is_definite(act)) return Check::kContinue;  // still activating

  // Activated: the effect must still be able to reach an output.
  return xpath_exists() ? Check::kContinue : Check::kFail;
}

// Builds frontier_ (gates that can still extend the fault effect) and runs
// a forward reachability pass to a primary output through X-capable gates.
bool Podem::xpath_exists() {
  frontier_.clear();
  auto maybe_diff = [&](GateId g) {
    return !is_definite(good_[g]) || !is_definite(faulty_[g]);
  };
  auto diff_definite = [&](GateId g) {
    return is_definite(good_[g]) && is_definite(faulty_[g]) &&
           good_[g] != faulty_[g];
  };

  std::vector<GateId> seeds;
  for (GateId g : cone_) {
    if (diff_definite(g)) {
      seeds.push_back(g);
      continue;
    }
    if (!maybe_diff(g)) continue;
    bool has_d_input = false;
    for (GateId f : nl_->gate(g).fanin)
      if (diff_definite(f)) {
        has_d_input = true;
        break;
      }
    // The pin-fault site can originate a difference its fanins do not show.
    if (!has_d_input && !fault_.is_output_fault() && fault_.gate == g) {
      const V3 line =
          good_[nl_->gate(g).fanin[static_cast<std::size_t>(fault_.pin)]];
      if (!is_definite(line) || v3_to_bool(line) != (fault_.value != 0))
        has_d_input = true;
    }
    if (has_d_input) {
      seeds.push_back(g);
      frontier_.push_back(g);
    }
  }
  if (seeds.empty()) return false;

  std::fill(visit_.begin(), visit_.end(), 0);
  std::vector<GateId> queue;
  for (GateId g : seeds) {
    visit_[g] = 1;
    queue.push_back(g);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const GateId g = queue[head];
    if (nl_->is_output(g)) return true;
    for (GateId s : nl_->gate(g).fanout) {
      if (visit_[s] || !maybe_diff(s)) continue;
      visit_[s] = 1;
      queue.push_back(s);
    }
  }
  return false;
}

bool Podem::pick_objective(Objective* obj) {
  if (fault_mode_) {
    const V3 act = good_[activation_gate_];
    if (!is_definite(act)) {
      *obj = {activation_gate_, fault_.value == 0};
      return true;
    }
    // frontier_ is fresh: check() ran xpath_exists() on this state.
    GateId best = kNoGate;
    for (GateId g : frontier_) {
      bool has_x_input = false;
      for (GateId f : nl_->gate(g).fanin)
        if (!is_definite(good_[f])) {
          has_x_input = true;
          break;
        }
      if (!has_x_input) continue;
      if (best == kNoGate || dist_po_[g] < dist_po_[best]) best = g;
    }
    if (best == kNoGate) return false;
    const Gate& gate = nl_->gate(best);
    if (has_controlling_value(gate.type)) {
      const bool noncontrolling = !controlling_value(gate.type);
      for (GateId f : gate.fanin)
        if (!is_definite(good_[f])) {
          *obj = {f, noncontrolling};
          return true;
        }
    } else {
      for (GateId f : gate.fanin)
        if (!is_definite(good_[f])) {
          *obj = {f, false};
          return true;
        }
    }
    return false;
  }

  const V3 v = good_[justify_gate_];
  if (is_definite(v)) return false;
  *obj = {justify_gate_, justify_value_};
  return true;
}

bool Podem::backtrace(Objective obj, Decision* out) {
  GateId g = obj.gate;
  bool v = obj.value;
  for (std::size_t steps = 0; steps <= nl_->num_gates(); ++steps) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kInput) {
      if (is_definite(pi_value_[g])) return false;  // already decided
      *out = {g, v, false};
      return true;
    }
    if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1)
      return false;  // cannot influence a constant

    switch (gate.type) {
      case GateType::kBuf:
        g = gate.fanin[0];
        break;
      case GateType::kNot:
        g = gate.fanin[0];
        v = !v;
        break;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool inv = is_inverting(gate.type);
        const bool u = v != inv;  // target in the AND/OR sense
        const bool cv = controlling_value(gate.type);
        GateId pick = kNoGate;
        if (u != cv) {
          // All inputs must take the non-controlling value: attack the
          // hardest X input first to fail fast.
          std::uint32_t worst = 0;
          for (GateId f : gate.fanin) {
            if (is_definite(good_[f])) continue;
            const std::uint32_t cost = u ? cc1_[f] : cc0_[f];
            if (pick == kNoGate || cost > worst) {
              pick = f;
              worst = cost;
            }
          }
        } else {
          // One controlling input suffices: take the cheapest X input.
          std::uint32_t bestc = kInf;
          for (GateId f : gate.fanin) {
            if (is_definite(good_[f])) continue;
            const std::uint32_t cost = cv ? cc1_[f] : cc0_[f];
            if (pick == kNoGate || cost < bestc) {
              pick = f;
              bestc = cost;
            }
          }
        }
        if (pick == kNoGate) return false;
        g = pick;
        v = u;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = gate.type == GateType::kXnor;
        GateId pick = kNoGate;
        for (GateId f : gate.fanin) {
          if (is_definite(good_[f])) {
            parity ^= v3_to_bool(good_[f]);
          } else if (pick == kNoGate) {
            pick = f;
          }
        }
        if (pick == kNoGate) return false;
        // Assume the remaining X inputs settle to 0.
        g = pick;
        v = v != parity;
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

bool Podem::fallback_pi(Decision* out) {
  for (GateId g : nl_->inputs())
    if (!is_definite(pi_value_[g])) {
      *out = {g, false, false};
      return true;
    }
  return false;
}

void Podem::extract_test(BitVec* test, Rng& rng) {
  *test = BitVec(nl_->num_inputs());
  for (std::size_t i = 0; i < nl_->num_inputs(); ++i) {
    const GateId g = nl_->inputs()[i];
    if (is_definite(pi_value_[g]))
      test->set(i, v3_to_bool(pi_value_[g]));
    else
      test->set(i, options_.fill_random ? rng.coin() : false);
  }
}

PodemStatus Podem::run(BitVec* test, Rng& rng) {
  stack_.clear();
  backtracks_ = 0;
  decisions_ = 0;
  for (GateId g : nl_->inputs()) pi_value_[g] = kVX;
  full_imply();

  BudgetScope scope(options_.budget);
  while (true) {
    // Budget expiry is reported like a backtrack-limit abort: the caller
    // already handles kAborted as "gave up on this fault".
    if (((decisions_ + backtracks_) & 63) == 0 && scope.stop())
      return PodemStatus::kAborted;
    const Check c = check();
    if (c == Check::kSuccess) {
      extract_test(test, rng);
      return PodemStatus::kTestFound;
    }
    bool need_backtrack = c == Check::kFail;
    if (!need_backtrack) {
      Objective obj;
      Decision d;
      bool have_decision = false;
      if (pick_objective(&obj) && backtrace(obj, &d)) have_decision = true;
      if (!have_decision && fallback_pi(&d)) have_decision = true;
      if (have_decision) {
        ++decisions_;
        d.trail_mark = trail_.size();
        stack_.push_back(d);
        assign_pi(d.pi, v3_from_bool(d.value));
        continue;
      }
      // All inputs assigned but no success: dead end.
      need_backtrack = true;
    }
    // Backtrack: discard exhausted decisions, flip the newest open one.
    while (!stack_.empty() && stack_.back().flipped) {
      undo_to(stack_.back().trail_mark);
      pi_value_[stack_.back().pi] = kVX;
      stack_.pop_back();
    }
    if (stack_.empty()) return PodemStatus::kUntestable;
    if (++backtracks_ > options_.backtrack_limit) return PodemStatus::kAborted;
    Decision& top = stack_.back();
    undo_to(top.trail_mark);
    top.flipped = true;
    top.value = !top.value;
    assign_pi(top.pi, v3_from_bool(top.value));
  }
}

PodemStatus Podem::generate(const StuckFault& fault, BitVec* test, Rng& rng) {
  fault_mode_ = true;
  fault_ = fault;
  activation_gate_ = fault.is_output_fault()
                         ? fault.gate
                         : nl_->gate(fault.gate)
                               .fanin[static_cast<std::size_t>(fault.pin)];
  // Faults with no structural path to an output are untestable outright.
  if (dist_po_[fault.gate] == kInf && !nl_->is_output(fault.gate))
    return PodemStatus::kUntestable;

  // Fanout cone of the fault site, in topological order (the only gates
  // whose good/faulty values can ever differ).
  cone_.clear();
  std::fill(visit_.begin(), visit_.end(), 0);
  std::vector<GateId> queue{fault.gate};
  visit_[fault.gate] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const GateId g = queue[head];
    for (GateId s : nl_->gate(g).fanout)
      if (!visit_[s]) {
        visit_[s] = 1;
        queue.push_back(s);
      }
  }
  for (GateId g : nl_->topo_order())
    if (visit_[g]) cone_.push_back(g);

  return run(test, rng);
}

PodemStatus Podem::justify(GateId target, bool value, BitVec* test, Rng& rng) {
  fault_mode_ = false;
  justify_gate_ = target;
  justify_value_ = value;
  return run(test, rng);
}

}  // namespace sddict
