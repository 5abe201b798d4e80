#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

namespace sddict {

GateId Netlist::add_gate(GateType type, const std::string& name,
                         const std::vector<GateId>& fanin) {
  if (name.empty()) throw std::runtime_error("add_gate: empty name");
  if (by_name_.count(name))
    throw std::runtime_error("add_gate: duplicate name '" + name + "'");
  // Arity checks.
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      if (!fanin.empty())
        throw std::runtime_error("add_gate: source gate '" + name + "' with fanin");
      break;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff:
      if (fanin.size() != 1)
        throw std::runtime_error("add_gate: '" + name + "' needs exactly 1 fanin");
      break;
    default:
      if (fanin.empty())
        throw std::runtime_error("add_gate: '" + name + "' needs fanin");
      break;
  }
  for (GateId f : fanin)
    if (f >= gates_.size())
      throw std::runtime_error("add_gate: '" + name + "' references unknown fanin");

  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.type = type;
  g.name = name;
  g.fanin = fanin;
  gates_.push_back(std::move(g));
  output_index_.push_back(-1);
  by_name_[name] = id;
  for (GateId f : fanin) gates_[f].fanout.push_back(id);
  if (type == GateType::kInput) inputs_.push_back(id);
  if (type == GateType::kDff) dffs_.push_back(id);
  topo_.valid.store(false);
  return id;
}

GateId Netlist::add_dff_placeholder(const std::string& name) {
  if (name.empty()) throw std::runtime_error("add_dff_placeholder: empty name");
  if (by_name_.count(name))
    throw std::runtime_error("add_dff_placeholder: duplicate name '" + name + "'");
  const GateId id = static_cast<GateId>(gates_.size());
  Gate g;
  g.type = GateType::kDff;
  g.name = name;
  gates_.push_back(std::move(g));
  output_index_.push_back(-1);
  by_name_[name] = id;
  dffs_.push_back(id);
  topo_.valid.store(false);
  return id;
}

void Netlist::connect_dff(GateId dff, GateId data_src) {
  if (dff >= gates_.size() || data_src >= gates_.size())
    throw std::runtime_error("connect_dff: bad gate id");
  Gate& g = gates_[dff];
  if (g.type != GateType::kDff)
    throw std::runtime_error("connect_dff: '" + g.name + "' is not a DFF");
  if (!g.fanin.empty())
    throw std::runtime_error("connect_dff: '" + g.name + "' already connected");
  g.fanin.push_back(data_src);
  gates_[data_src].fanout.push_back(dff);
  topo_.valid.store(false);
}

void Netlist::mark_output(GateId g) {
  if (g >= gates_.size()) throw std::runtime_error("mark_output: bad gate id");
  if (output_index_[g] >= 0)
    throw std::runtime_error("mark_output: gate '" + gates_[g].name +
                             "' already an output");
  output_index_[g] = static_cast<int>(outputs_.size());
  outputs_.push_back(g);
}

GateId Netlist::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoGate : it->second;
}

void Netlist::validate() const {
  // Fanout consistency.
  for (GateId g = 0; g < gates_.size(); ++g) {
    for (GateId f : gates_[g].fanin) {
      const auto& fo = gates_[f].fanout;
      if (std::count(fo.begin(), fo.end(), g) !=
          std::count(gates_[g].fanin.begin(), gates_[g].fanin.end(), f))
        throw std::runtime_error("validate: fanout list inconsistent at '" +
                                 gates_[g].name + "'");
    }
  }
  for (GateId d : dffs_)
    if (gates_[d].fanin.size() != 1)
      throw std::runtime_error("validate: DFF '" + gates_[d].name +
                               "' has no data input");
  // Acyclicity (throws inside build_topo on a combinational cycle).
  topo_order();
  // Every non-source gate reachable check is not required, but outputs must
  // exist on a non-trivial netlist.
  if (!gates_.empty() && outputs_.empty())
    throw std::runtime_error("validate: netlist has no outputs");
}

Netlist::TopoCache::TopoCache(const TopoCache& other) { *this = other; }

Netlist::TopoCache& Netlist::TopoCache::operator=(const TopoCache& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu, other.mu);
  valid.store(other.valid.load());
  order = other.order;
  levels = other.levels;
  return *this;
}

const Netlist::TopoCache& Netlist::topo() const {
  if (!topo_.valid.load()) {
    std::lock_guard lock(topo_.mu);
    if (!topo_.valid.load()) build_topo();
  }
  return topo_;
}

const std::vector<GateId>& Netlist::topo_order() const { return topo().order; }

const std::vector<std::uint32_t>& Netlist::levels() const {
  return topo().levels;
}

std::uint32_t Netlist::depth() const {
  std::uint32_t d = 0;
  for (auto l : levels()) d = std::max(d, l);
  return d;
}

std::size_t Netlist::num_lines() const {
  std::size_t n = 0;
  for (const auto& g : gates_) n += g.fanin.size();
  return n;
}

void Netlist::build_topo() const {
  const std::size_t n = gates_.size();
  std::vector<GateId>& order = topo_.order;
  std::vector<std::uint32_t>& levels = topo_.levels;
  order.clear();
  order.reserve(n);
  levels.assign(n, 0);
  // Kahn's algorithm; DFFs count as sources (their fanin edge is a
  // sequential edge, not a combinational dependency).
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<GateId> ready;
  for (GateId g = 0; g < n; ++g) {
    const auto& gate = gates_[g];
    const bool source = gate.type == GateType::kInput ||
                        gate.type == GateType::kDff ||
                        gate.type == GateType::kConst0 ||
                        gate.type == GateType::kConst1;
    pending[g] = source ? 0 : static_cast<std::uint32_t>(gate.fanin.size());
    if (pending[g] == 0) ready.push_back(g);
  }
  while (!ready.empty()) {
    const GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    for (GateId s : gates_[g].fanout) {
      if (gates_[s].type == GateType::kDff) continue;  // sequential edge
      levels[s] = std::max(levels[s], levels[g] + 1);
      if (--pending[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n)
    throw std::runtime_error("netlist '" + name_ + "' has a combinational cycle");
  topo_.valid.store(true);
}

}  // namespace sddict
