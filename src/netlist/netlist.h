// Gate-level netlist container. A netlist is a DAG of gates (cycles are
// only permitted through DFFs, which the full-scan transform removes before
// simulation). Primary outputs are references to driver gates; a gate can
// drive several outputs and an output can also feed other gates.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"

namespace sddict {

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // --- construction -------------------------------------------------------

  // Adds a gate; fanins must already exist. Names must be unique and
  // non-empty. Returns the new gate's id.
  GateId add_gate(GateType type, const std::string& name,
                  const std::vector<GateId>& fanin = {});

  // Marks an existing gate as a primary output. A gate may be marked at most
  // once; order of marking defines output order.
  void mark_output(GateId g);

  // Sequential loops (DFF -> logic -> same DFF) make it impossible to create
  // every gate after its fanin. A DFF can therefore be created first as a
  // placeholder with no fanin and wired to its data input later.
  GateId add_dff_placeholder(const std::string& name);
  void connect_dff(GateId dff, GateId data_src);

  // Checks structural invariants (fanin arities, acyclicity except through
  // DFFs, fanout consistency). Throws std::runtime_error with a message on
  // violation.
  void validate() const;

  // --- access --------------------------------------------------------------

  std::size_t num_gates() const { return gates_.size(); }
  const Gate& gate(GateId g) const { return gates_[g]; }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  bool is_output(GateId g) const { return output_index_[g] >= 0; }
  // Position of g in outputs(), or -1.
  int output_index(GateId g) const { return output_index_[g]; }

  // Id of the gate with the given name, or kNoGate.
  GateId find(const std::string& name) const;

  bool has_dffs() const { return !dffs_.empty(); }

  // --- topology -------------------------------------------------------------

  // Gates in topological order (fanins before fanouts); DFF outputs are
  // treated as sources. Cached; invalidated by add_gate. Safe to call from
  // several threads at once on a netlist nobody is modifying.
  const std::vector<GateId>& topo_order() const;

  // Logic level of each gate: inputs/DFFs/constants at level 0, otherwise
  // 1 + max fanin level. Cached alongside topo_order.
  const std::vector<std::uint32_t>& levels() const;

  std::uint32_t depth() const;

  // Number of connections (sum of fanin arities).
  std::size_t num_lines() const;

 private:
  // Topological order and levels, built on first use. Concurrent const
  // callers build it at most once: under `mu`, with `valid` publishing the
  // result. A copy starts from the source's cache (and its own mutex).
  struct TopoCache {
    TopoCache() = default;
    TopoCache(const TopoCache& other);
    TopoCache& operator=(const TopoCache& other);

    mutable std::mutex mu;
    std::atomic<bool> valid{false};
    std::vector<GateId> order;
    std::vector<std::uint32_t> levels;
  };

  const TopoCache& topo() const;
  void build_topo() const;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
  std::vector<int> output_index_;
  std::unordered_map<std::string, GateId> by_name_;

  mutable TopoCache topo_;
};

}  // namespace sddict
