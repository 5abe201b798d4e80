#include "netlist/gate.h"

#include <stdexcept>

#include "util/strings.h"

namespace sddict {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "INPUT";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kDff: return "DFF";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
  }
  return "?";
}

bool parse_gate_type(const std::string& name, GateType* out) {
  const std::string n = to_lower(name);
  if (n == "buf" || n == "buff") *out = GateType::kBuf;
  else if (n == "not" || n == "inv") *out = GateType::kNot;
  else if (n == "and") *out = GateType::kAnd;
  else if (n == "nand") *out = GateType::kNand;
  else if (n == "or") *out = GateType::kOr;
  else if (n == "nor") *out = GateType::kNor;
  else if (n == "xor") *out = GateType::kXor;
  else if (n == "xnor") *out = GateType::kXnor;
  else if (n == "dff") *out = GateType::kDff;
  else if (n == "const0") *out = GateType::kConst0;
  else if (n == "const1") *out = GateType::kConst1;
  else return false;
  return true;
}

bool has_controlling_value(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
      return true;
    default:
      return false;
  }
}

bool controlling_value(GateType t) {
  switch (t) {
    case GateType::kAnd:
    case GateType::kNand:
      return false;
    case GateType::kOr:
    case GateType::kNor:
      return true;
    default:
      throw std::logic_error("controlling_value: gate has none");
  }
}

bool controlled_response(GateType t) {
  switch (t) {
    case GateType::kAnd: return false;
    case GateType::kNand: return true;
    case GateType::kOr: return true;
    case GateType::kNor: return false;
    default:
      throw std::logic_error("controlled_response: gate has none");
  }
}

bool is_inverting(GateType t) {
  switch (t) {
    case GateType::kNot:
    case GateType::kNand:
    case GateType::kNor:
    case GateType::kXnor:
      return true;
    default:
      return false;
  }
}

std::uint64_t eval_gate_words(GateType t, const std::uint64_t* in, std::size_t n) {
  return eval_gate<std::uint64_t>(t, n, [&](std::size_t i) { return in[i]; });
}

bool eval_gate_bool(GateType t, const bool* in, std::size_t n) {
  std::uint64_t words[16];
  if (n > 16) {
    std::vector<std::uint64_t> big(n);
    for (std::size_t i = 0; i < n; ++i) big[i] = in[i] ? ~std::uint64_t{0} : 0;
    return (eval_gate_words(t, big.data(), n) & 1) != 0;
  }
  for (std::size_t i = 0; i < n; ++i) words[i] = in[i] ? ~std::uint64_t{0} : 0;
  return (eval_gate_words(t, words, n) & 1) != 0;
}

}  // namespace sddict
