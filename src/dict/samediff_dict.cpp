#include "dict/samediff_dict.h"

#include <algorithm>
#include <stdexcept>

namespace sddict {

SameDifferentDictionary SameDifferentDictionary::build(
    const ResponseMatrix& rm, std::vector<ResponseId> baselines) {
  if (baselines.size() != rm.num_tests())
    throw std::invalid_argument("SameDifferentDictionary: baseline count mismatch");
  for (std::size_t t = 0; t < baselines.size(); ++t)
    if (baselines[t] >= rm.num_distinct(t))
      throw std::invalid_argument(
          "SameDifferentDictionary: baseline id out of range for test " +
          std::to_string(t));

  std::vector<BitVec> rows = rm.difference_rows(baselines);
  return from_parts(std::move(rows), std::move(baselines), rm.num_outputs());
}

SameDifferentDictionary SameDifferentDictionary::from_parts(
    std::vector<BitVec> rows, std::vector<ResponseId> baselines,
    std::size_t num_outputs) {
  const std::size_t num_tests = baselines.size();
  for (const auto& r : rows)
    if (r.size() != num_tests)
      throw std::invalid_argument("SameDifferentDictionary::from_parts: row width");
  SameDifferentDictionary d;
  d.num_tests_ = num_tests;
  d.num_outputs_ = num_outputs;
  d.baselines_ = std::move(baselines);
  d.rows_ = std::move(rows);

  d.partition_ = Partition(d.rows_.size());
  for (std::size_t t = 0; t < num_tests; ++t) {
    d.partition_.refine_with([&](std::uint32_t f) { return d.bit(f, t); });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

std::size_t SameDifferentDictionary::num_nontrivial_baselines() const {
  std::size_t n = 0;
  for (ResponseId b : baselines_) n += b != 0 ? 1 : 0;
  return n;
}

BitVec SameDifferentDictionary::encode(
    const std::vector<ResponseId>& observed) const {
  check_observation_size("SameDifferentDictionary::encode: observed tests",
                         num_tests_, observed.size());
  BitVec bits(num_tests_);
  for (std::size_t t = 0; t < num_tests_; ++t)
    bits.set(t, observed[t] != baselines_[t]);
  return bits;
}

std::vector<DiagnosisMatch> SameDifferentDictionary::diagnose(
    const BitVec& observed_bits, std::size_t max_results) const {
  check_observation_size("SameDifferentDictionary::diagnose: signature bits",
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
