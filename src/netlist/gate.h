// Gate-level primitives. The library models circuits at the granularity of
// ISCAS .bench netlists: multi-input basic gates, buffers/inverters, D
// flip-flops, and constants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sddict {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = static_cast<GateId>(-1);

enum class GateType : std::uint8_t {
  kInput,   // primary or pseudo-primary input; no fanin
  kBuf,     // 1 fanin
  kNot,     // 1 fanin
  kAnd,     // >=1 fanin
  kNand,    // >=1 fanin
  kOr,      // >=1 fanin
  kNor,     // >=1 fanin
  kXor,     // >=1 fanin (odd parity)
  kXnor,    // >=1 fanin (even parity)
  kDff,     // 1 fanin (data); removed by the full-scan transform
  kConst0,  // no fanin
  kConst1,  // no fanin
};

const char* gate_type_name(GateType t);

// Parses a .bench function name ("AND", "nand", ...). Returns false when the
// name is not recognized.
bool parse_gate_type(const std::string& name, GateType* out);

// True for AND/NAND/OR/NOR: a single input at the controlling value fixes
// the output regardless of the other inputs.
bool has_controlling_value(GateType t);
// The controlling input value (0 for AND/NAND, 1 for OR/NOR). Only valid
// when has_controlling_value(t).
bool controlling_value(GateType t);
// Output when a controlling input is present (0 for AND/OR? no:) —
// controlled response: AND->0, NAND->1, OR->1, NOR->0.
bool controlled_response(GateType t);
// True when the gate inverts its "natural" sense (NOT, NAND, NOR, XNOR).
bool is_inverting(GateType t);

struct Gate {
  GateType type = GateType::kBuf;
  std::string name;
  std::vector<GateId> fanin;
  std::vector<GateId> fanout;  // gates that list this gate in their fanin
};

// Evaluates a gate of type t and arity n on the values value_of(p) of its
// fanin pins p < n. Word is any type with the bitwise operators: one 64-bit
// word of packed patterns, or several (the fault simulator's LaneWord).
// This is the one definition of every gate function; the simulators inline
// it into their loops.
template <class Word, class ValueOf>
inline Word eval_gate(GateType t, std::size_t n, ValueOf&& value_of) {
  switch (t) {
    case GateType::kInput:
      throw std::logic_error("eval_gate: INPUT has no function");
    case GateType::kDff:
      throw std::logic_error("eval_gate: DFF must be removed by full-scan");
    case GateType::kConst0:
      return Word{};
    case GateType::kConst1:
      return ~Word{};
    case GateType::kBuf:
      return value_of(0);
    case GateType::kNot:
      return ~value_of(0);
    case GateType::kAnd:
    case GateType::kNand: {
      Word v = value_of(0);
      for (std::size_t i = 1; i < n; ++i) v &= value_of(i);
      return t == GateType::kNand ? ~v : v;
    }
    case GateType::kOr:
    case GateType::kNor: {
      Word v = value_of(0);
      for (std::size_t i = 1; i < n; ++i) v |= value_of(i);
      return t == GateType::kNor ? ~v : v;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      Word v = value_of(0);
      for (std::size_t i = 1; i < n; ++i) v ^= value_of(i);
      return t == GateType::kXnor ? ~v : v;
    }
  }
  throw std::logic_error("eval_gate: bad gate type");
}

// Evaluates a gate over 64 packed pattern bits given fanin words.
std::uint64_t eval_gate_words(GateType t, const std::uint64_t* in, std::size_t n);

// Scalar two-valued evaluation.
bool eval_gate_bool(GateType t, const bool* in, std::size_t n);

}  // namespace sddict
