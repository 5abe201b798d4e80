#include "dict/dictionary.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sddict {

const char* dictionary_kind_name(DictionaryKind k) {
  switch (k) {
    case DictionaryKind::kFull: return "full";
    case DictionaryKind::kPassFail: return "pass/fail";
    case DictionaryKind::kSameDifferent: return "same/different";
  }
  return "?";
}

DictionarySizes dictionary_sizes(std::uint64_t num_tests, std::uint64_t num_faults,
                                 std::uint64_t num_outputs) {
  DictionarySizes s;
  s.full_bits = num_tests * num_faults * num_outputs;
  s.pass_fail_bits = num_tests * num_faults;
  s.same_different_bits = num_tests * (num_faults + num_outputs);
  return s;
}

std::uint64_t hybrid_same_different_bits(std::uint64_t num_tests,
                                         std::uint64_t num_faults,
                                         std::uint64_t num_outputs,
                                         std::uint64_t stored_baselines) {
  return num_tests * num_faults + stored_baselines * num_outputs + num_tests;
}

std::vector<DiagnosisMatch> rank_matches(std::vector<DiagnosisMatch> all,
                                         std::size_t max_results) {
  // Stable counting pass by mismatch count: start[c] is the output
  // position of the next candidate with count c. Candidates arrive in
  // ascending fault order, so equal counts keep it, and only the first
  // max_results positions are written.
  std::uint32_t top = 0;
  for (const DiagnosisMatch& m : all) top = std::max(top, m.mismatches);
  std::vector<std::size_t> start(static_cast<std::size_t>(top) + 2, 0);
  for (const DiagnosisMatch& m : all) ++start[m.mismatches + std::size_t{1}];
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<DiagnosisMatch> ranked(std::min(all.size(), max_results));
  for (const DiagnosisMatch& m : all) {
    const std::size_t pos = start[m.mismatches]++;
    if (pos < ranked.size()) ranked[pos] = m;
  }
  return ranked;
}

void check_observation_size(const char* what, std::size_t expected,
                            std::size_t actual) {
  if (actual == expected) return;
  throw std::invalid_argument(std::string(what) + ": expected " +
                              std::to_string(expected) + ", got " +
                              std::to_string(actual));
}

}  // namespace sddict
