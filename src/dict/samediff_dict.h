// Same/different fault dictionary (the paper's contribution): one bit per
// (fault, test), where the bit compares the faulty response against a
// per-test *baseline* response z_bl,j instead of the fault-free response.
// Baseline selection lives in src/core; this class materializes the
// dictionary for a given baseline assignment.
#pragma once

#include <cstdint>
#include <vector>

#include "dict/dictionary.h"
#include "dict/full_dict.h"
#include "dict/partition.h"
#include "sim/response.h"
#include "util/bitvec.h"

namespace sddict {

class SameDifferentDictionary {
 public:
  // baselines[t] is the response id (within rm's interning for test t) the
  // t-th column compares against; id 0 reproduces a pass/fail dictionary.
  static SameDifferentDictionary build(const ResponseMatrix& rm,
                                       std::vector<ResponseId> baselines);

  // Reconstructs a dictionary from raw parts, e.g. when loading from disk.
  // The partition is recomputed.
  static SameDifferentDictionary from_parts(std::vector<BitVec> rows,
                                            std::vector<ResponseId> baselines,
                                            std::size_t num_outputs);

  std::size_t num_faults() const { return rows_.size(); }
  std::size_t num_tests() const { return num_tests_; }
  std::size_t num_outputs() const { return num_outputs_; }

  bool bit(FaultId f, std::size_t t) const { return rows_[f].get(t); }
  const BitVec& row(FaultId f) const { return rows_[f]; }

  const std::vector<ResponseId>& baselines() const { return baselines_; }

  // Tests whose baseline is not the fault-free response (only these need a
  // stored baseline vector in the hybrid size model).
  std::size_t num_nontrivial_baselines() const;

  std::uint64_t size_bits() const {
    return dictionary_sizes(num_tests_, rows_.size(), num_outputs_)
        .same_different_bits;
  }

  const Partition& partition() const { return partition_; }
  std::uint64_t indistinguished_pairs() const {
    return partition_.indistinguished_pairs();
  }

  // Observed response ids -> same/different signature. kUnknownResponse
  // (a response no modeled fault produces) always differs from the baseline.
  BitVec encode(const std::vector<ResponseId>& observed) const;

  std::vector<DiagnosisMatch> diagnose(const BitVec& observed_bits,
                                       std::size_t max_results = 10) const;

 private:
  std::size_t num_tests_ = 0;
  std::size_t num_outputs_ = 0;
  std::vector<ResponseId> baselines_;
  std::vector<BitVec> rows_;
  Partition partition_{0};
};

}  // namespace sddict
