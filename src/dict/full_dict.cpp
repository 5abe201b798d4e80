#include "dict/full_dict.h"

#include <algorithm>
#include <stdexcept>

namespace sddict {

FullDictionary FullDictionary::build(const ResponseMatrix& rm) {
  // Transpose the test-major matrix into fault-major entries, 16 tests (one
  // cache line of entries) at a time so both sides stream.
  const std::size_t n = rm.num_faults();
  const std::size_t k = rm.num_tests();
  std::vector<ResponseId> entries(n * k);
  for (std::size_t first = 0; first < k; first += 16) {
    const std::size_t last = std::min(k, first + 16);
    for (std::size_t f = 0; f < n; ++f)
      for (std::size_t t = first; t < last; ++t)
        entries[f * k + t] = rm.response(static_cast<FaultId>(f), t);
  }
  FullDictionary d;
  d.num_faults_ = n;
  d.num_tests_ = k;
  d.num_outputs_ = rm.num_outputs();
  d.entries_ = std::move(entries);
  // Refine from the matrix's contiguous columns, not the strided rows.
  d.partition_ = Partition(n);
  for (std::size_t t = 0; t < k && !d.partition_.fully_refined(); ++t) {
    const auto col = rm.column(t);
    d.partition_.refine_with([&](std::uint32_t f) { return col[f]; });
  }
  return d;
}

FullDictionary FullDictionary::from_entries(std::vector<ResponseId> entries,
                                            std::size_t num_faults,
                                            std::size_t num_tests,
                                            std::size_t num_outputs) {
  if (entries.size() != num_faults * num_tests)
    throw std::invalid_argument("FullDictionary::from_entries: size mismatch");
  FullDictionary d;
  d.num_faults_ = num_faults;
  d.num_tests_ = num_tests;
  d.num_outputs_ = num_outputs;
  d.entries_ = std::move(entries);

  d.partition_ = Partition(d.num_faults_);
  for (std::size_t t = 0; t < d.num_tests_; ++t) {
    d.partition_.refine_with([&](std::uint32_t f) { return d.entry(f, t); });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

std::vector<DiagnosisMatch> FullDictionary::diagnose(
    const std::vector<ResponseId>& observed, std::size_t max_results) const {
  check_observation_size("FullDictionary::diagnose: observed tests",
                         num_tests_, observed.size());
  std::vector<DiagnosisMatch> all(num_faults_);
  for (FaultId f = 0; f < num_faults_; ++f) {
    std::uint32_t mism = 0;
    for (std::size_t t = 0; t < num_tests_; ++t)
      if (observed[t] == kUnknownResponse || entry(f, t) != observed[t]) ++mism;
    all[f] = {f, mism};
  }
  return rank_matches(std::move(all), max_results);
}

}  // namespace sddict
