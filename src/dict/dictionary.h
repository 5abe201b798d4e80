// Common vocabulary for the three dictionary types the paper compares.
//
// Size model (Section 2 of the paper), for k tests, n faults, m outputs:
//   full         k * n * m   bits
//   pass/fail    k * n       bits
//   same/diff    k * (n + m) bits   (bit matrix + one baseline vector/test)
// The fault-free response (k*m bits) is needed by all flows and is not
// charged to any dictionary.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.h"

namespace sddict {

enum class DictionaryKind { kFull, kPassFail, kSameDifferent };

const char* dictionary_kind_name(DictionaryKind k);

struct DictionarySizes {
  std::uint64_t full_bits = 0;
  std::uint64_t pass_fail_bits = 0;
  std::uint64_t same_different_bits = 0;
};

DictionarySizes dictionary_sizes(std::uint64_t num_tests, std::uint64_t num_faults,
                                 std::uint64_t num_outputs);

// Size of a hybrid same/different dictionary that stores explicit baselines
// for only `stored_baselines` of the tests (the rest compare against the
// fault-free response): bit matrix + stored vectors + a per-test flag bit.
std::uint64_t hybrid_same_different_bits(std::uint64_t num_tests,
                                         std::uint64_t num_faults,
                                         std::uint64_t num_outputs,
                                         std::uint64_t stored_baselines);

// One candidate of a cause-effect lookup, shared by every dictionary type.
struct DiagnosisMatch {
  FaultId fault = kNoFault;
  // Number of tests whose dictionary entry disagrees with the observation.
  std::uint32_t mismatches = 0;
  // Confidence annotations stamped by the diagnosis engine (diag/engine.h):
  // how far the runner-up trails this candidate (top match only) and how
  // many tests were actually compared after don't-care removal. Zero on
  // matches produced by a plain dictionary diagnose().
  std::uint32_t margin = 0;
  std::uint32_t effective_tests = 0;
};

// The shared tail of every dictionary's diagnose() and of the engine's
// ranking: order candidates by (mismatches, fault id) and keep the best
// max_results. Precondition: `all` is in ascending fault order (every
// caller collects candidates in a sweep over fault ids). The ordering is
// then a stable counting pass over the mismatch counts, linear in the
// candidates plus the largest count, which is at most the row's width.
std::vector<DiagnosisMatch> rank_matches(std::vector<DiagnosisMatch> all,
                                         std::size_t max_results);

// Throws std::invalid_argument naming the call site and both sizes, e.g.
// "SameDifferentDictionary::diagnose: signature bits: expected 14, got 12".
void check_observation_size(const char* what, std::size_t expected,
                            std::size_t actual);

}  // namespace sddict
