#include "dict/multibaseline_dict.h"

#include <algorithm>
#include <stdexcept>

namespace sddict {

MultiBaselineDictionary MultiBaselineDictionary::build(
    const ResponseMatrix& rm, std::vector<std::vector<ResponseId>> baselines) {
  if (baselines.size() != rm.num_tests())
    throw std::invalid_argument("MultiBaselineDictionary: baseline count");
  std::size_t rank = 0;
  std::size_t stored = 0;
  for (std::size_t t = 0; t < baselines.size(); ++t) {
    auto& bs = baselines[t];
    rank = std::max(rank, bs.size());
    stored += bs.size();
    for (std::size_t l = 0; l < bs.size(); ++l) {
      if (bs[l] >= rm.num_distinct(t))
        throw std::invalid_argument(
            "MultiBaselineDictionary: baseline id out of range");
      for (std::size_t k = l + 1; k < bs.size(); ++k)
        if (bs[l] == bs[k])
          throw std::invalid_argument(
              "MultiBaselineDictionary: duplicate baseline in one test");
    }
  }
  if (rank == 0)
    throw std::invalid_argument("MultiBaselineDictionary: no baselines at all");

  MultiBaselineDictionary d;
  d.num_faults_ = rm.num_faults();
  d.num_tests_ = rm.num_tests();
  d.num_outputs_ = rm.num_outputs();
  d.rank_ = rank;
  d.stored_baselines_ = stored;
  d.baselines_ = std::move(baselines);
  d.rows_.assign(rm.num_faults(), BitVec(rm.num_tests() * rank));
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    for (FaultId f = 0; f < rm.num_faults(); ++f) {
      const ResponseId r = rm.response(f, t);
      const auto& bs = d.baselines_[t];
      for (std::size_t l = 0; l < rank; ++l)
        if (l >= bs.size() || r != bs[l]) d.rows_[f].set(t * rank + l, true);
    }

  d.partition_ = Partition(rm.num_faults());
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    // Label = index of the matched baseline, or rank for "none".
    d.partition_.refine_with([&](std::uint32_t f) {
      const ResponseId r = rm.response(f, t);
      const auto& bs = d.baselines_[t];
      for (std::size_t l = 0; l < bs.size(); ++l)
        if (r == bs[l]) return static_cast<std::uint32_t>(l);
      return static_cast<std::uint32_t>(d.rank_);
    });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

MultiBaselineDictionary MultiBaselineDictionary::from_parts(
    std::vector<BitVec> rows, std::vector<std::vector<ResponseId>> baselines,
    std::size_t rank, std::size_t num_outputs) {
  if (rank == 0)
    throw std::invalid_argument("MultiBaselineDictionary::from_parts: rank 0");
  const std::size_t num_tests = baselines.size();
  std::size_t stored = 0;
  for (const auto& bs : baselines) {
    if (bs.size() > rank)
      throw std::invalid_argument(
          "MultiBaselineDictionary::from_parts: baseline set exceeds rank");
    stored += bs.size();
    for (std::size_t l = 0; l < bs.size(); ++l)
      for (std::size_t k = l + 1; k < bs.size(); ++k)
        if (bs[l] == bs[k])
          throw std::invalid_argument(
              "MultiBaselineDictionary: duplicate baseline in one test");
  }
  if (stored == 0)
    throw std::invalid_argument("MultiBaselineDictionary: no baselines at all");

  for (const auto& row : rows) {
    if (row.size() != num_tests * rank)
      throw std::invalid_argument(
          "MultiBaselineDictionary::from_parts: row width");
    for (std::size_t t = 0; t < num_tests; ++t) {
      std::size_t zeros = 0;
      for (std::size_t l = 0; l < rank; ++l) {
        if (row.get(t * rank + l)) continue;
        if (l >= baselines[t].size())
          throw std::invalid_argument(
              "MultiBaselineDictionary::from_parts: zero bit in empty slot");
        ++zeros;
      }
      // Baselines are distinct, so a response matches at most one.
      if (zeros > 1)
        throw std::invalid_argument(
            "MultiBaselineDictionary::from_parts: multiple matched baselines");
    }
  }

  MultiBaselineDictionary d;
  d.num_faults_ = rows.size();
  d.num_tests_ = num_tests;
  d.num_outputs_ = num_outputs;
  d.rank_ = rank;
  d.stored_baselines_ = stored;
  d.baselines_ = std::move(baselines);
  d.rows_ = std::move(rows);

  d.partition_ = Partition(d.num_faults_);
  for (std::size_t t = 0; t < d.num_tests_; ++t) {
    d.partition_.refine_with([&](std::uint32_t f) {
      for (std::size_t l = 0; l < d.rank_; ++l)
        if (!d.rows_[f].get(t * d.rank_ + l))
          return static_cast<std::uint32_t>(l);
      return static_cast<std::uint32_t>(d.rank_);
    });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

BitVec MultiBaselineDictionary::encode(
    const std::vector<ResponseId>& observed) const {
  check_observation_size("MultiBaselineDictionary::encode: observed tests",
                         num_tests_, observed.size());
  BitVec bits(num_tests_ * rank_);
  for (std::size_t t = 0; t < num_tests_; ++t) {
    const auto& bs = baselines_[t];
    for (std::size_t l = 0; l < rank_; ++l)
      if (l >= bs.size() || observed[t] != bs[l]) bits.set(t * rank_ + l, true);
  }
  return bits;
}

std::vector<DiagnosisMatch> MultiBaselineDictionary::diagnose(
    const BitVec& observed_bits, std::size_t max_results) const {
  check_observation_size("MultiBaselineDictionary::diagnose: signature bits",
                         num_tests_ * rank_, observed_bits.size());
  std::vector<DiagnosisMatch> all(rows_.size());
  for (FaultId f = 0; f < rows_.size(); ++f) {
    BitVec diff = rows_[f];
    diff ^= observed_bits;
    all[f] = {f, static_cast<std::uint32_t>(diff.count_ones())};
  }
  return rank_matches(std::move(all), max_results);
}

}  // namespace sddict
