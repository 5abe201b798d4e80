#include "dict/passfail_dict.h"

#include <algorithm>
#include <stdexcept>

namespace sddict {

PassFailDictionary PassFailDictionary::build(const ResponseMatrix& rm) {
  return from_rows(
      rm.difference_rows(std::vector<ResponseId>(rm.num_tests(), 0)),
      rm.num_tests(), rm.num_outputs());
}

PassFailDictionary PassFailDictionary::from_rows(std::vector<BitVec> rows,
                                                 std::size_t num_tests,
                                                 std::size_t num_outputs) {
  for (const auto& r : rows)
    if (r.size() != num_tests)
      throw std::invalid_argument("PassFailDictionary::from_rows: row width");
  PassFailDictionary d;
  d.num_tests_ = num_tests;
  d.num_outputs_ = num_outputs;
  d.rows_ = std::move(rows);

  d.partition_ = Partition(d.rows_.size());
  for (std::size_t t = 0; t < num_tests; ++t) {
    d.partition_.refine_with([&](std::uint32_t f) { return d.bit(f, t); });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

BitVec PassFailDictionary::encode(const std::vector<ResponseId>& observed) const {
  check_observation_size("PassFailDictionary::encode: observed tests",
                         num_tests_, observed.size());
  BitVec bits(num_tests_);
  for (std::size_t t = 0; t < num_tests_; ++t)
    bits.set(t, observed[t] != 0);  // id 0 == fault-free == pass
  return bits;
}

std::vector<DiagnosisMatch> PassFailDictionary::diagnose(
    const BitVec& observed_bits, std::size_t max_results) const {
  check_observation_size("PassFailDictionary::diagnose: signature bits",
                         num_tests_, observed_bits.size());
  std::vector<DiagnosisMatch> all(rows_.size());
  for (FaultId f = 0; f < rows_.size(); ++f) {
    BitVec diff = rows_[f];
    diff ^= observed_bits;
    all[f] = {f, static_cast<std::uint32_t>(diff.count_ones())};
  }
  return rank_matches(std::move(all), max_results);
}

}  // namespace sddict
