// First-fail dictionary: a classic low-resolution compromise from the
// literature the paper builds on (cf. reference [12], Lavo & Larrabee,
// "Making Cause-Effect Cost Effective: Low-Resolution Fault Dictionaries").
// Each (fault, test) entry records whether the test detects the fault and,
// if so, *which output fails first* (lowest failing output index):
//
//   entry = 0                 -> pass
//   entry = 1 + o             -> fail, first failing output is o
//
// Size: k * n * ceil(log2(m+1)) bits — between pass/fail and full. Included
// as a comparison point on the size/resolution frontier the same/different
// dictionary competes on.
#pragma once

#include <cstdint>
#include <vector>

#include "dict/dictionary.h"
#include "dict/full_dict.h"
#include "dict/partition.h"
#include "sim/response.h"

namespace sddict {

class FirstFailDictionary {
 public:
  // Requires a response matrix built with store_diff_outputs = true.
  static FirstFailDictionary build(const ResponseMatrix& rm);

  std::size_t num_faults() const { return num_faults_; }
  std::size_t num_tests() const { return num_tests_; }
  std::size_t num_outputs() const { return num_outputs_; }

  // 0 = pass, 1+o = first failing output o.
  std::uint32_t entry(FaultId f, std::size_t t) const {
    return entries_[static_cast<std::size_t>(f) * num_tests_ + t];
  }
  // Contiguous num_tests-wide row of a fault (the symbol-mismatch kernel's
  // operand, like FullDictionary::row_entries).
  const std::uint32_t* row_entries(FaultId f) const {
    return entries_.data() + static_cast<std::size_t>(f) * num_tests_;
  }

  std::uint64_t size_bits() const;

  const Partition& partition() const { return partition_; }
  std::uint64_t indistinguished_pairs() const {
    return partition_.indistinguished_pairs();
  }

  // Converts observed responses (as response ids of `rm`, which must be the
  // matrix the dictionary was built from) into entry values; unknown
  // responses cannot be translated and yield entry value m+1 ("mismatch
  // against everything").
  std::vector<std::uint32_t> encode(const ResponseMatrix& rm,
                                    const std::vector<ResponseId>& observed) const;

  std::vector<DiagnosisMatch> diagnose(const std::vector<std::uint32_t>& observed,
                                       std::size_t max_results = 10) const;

 private:
  std::size_t num_faults_ = 0;
  std::size_t num_tests_ = 0;
  std::size_t num_outputs_ = 0;
  std::vector<std::uint32_t> entries_;
  Partition partition_{0};
};

}  // namespace sddict
