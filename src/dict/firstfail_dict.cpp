#include "dict/firstfail_dict.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace sddict {

FirstFailDictionary FirstFailDictionary::build(const ResponseMatrix& rm) {
  if (!rm.has_diff_outputs())
    throw std::invalid_argument(
        "FirstFailDictionary: build the response matrix with "
        "store_diff_outputs");
  FirstFailDictionary d;
  d.num_faults_ = rm.num_faults();
  d.num_tests_ = rm.num_tests();
  d.num_outputs_ = rm.num_outputs();
  d.entries_.assign(d.num_faults_ * d.num_tests_, 0);
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    for (FaultId f = 0; f < rm.num_faults(); ++f) {
      const ResponseId r = rm.response(f, t);
      if (r == 0) continue;
      const auto& outs = rm.diff_outputs(t, r);
      d.entries_[static_cast<std::size_t>(f) * d.num_tests_ + t] =
          1 + outs.front();  // lists are sorted ascending
    }

  d.partition_ = Partition(d.num_faults_);
  for (std::size_t t = 0; t < d.num_tests_; ++t) {
    d.partition_.refine_with([&](std::uint32_t f) { return d.entry(f, t); });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

std::uint64_t FirstFailDictionary::size_bits() const {
  const std::uint64_t values = num_outputs_ + 1;  // pass + m outputs
  const std::uint64_t bits_per_entry = std::bit_width(values - 1);
  return static_cast<std::uint64_t>(num_tests_) * num_faults_ * bits_per_entry;
}

std::vector<std::uint32_t> FirstFailDictionary::encode(
    const ResponseMatrix& rm, const std::vector<ResponseId>& observed) const {
  check_observation_size("FirstFailDictionary::encode: observed tests",
                         num_tests_, observed.size());
  std::vector<std::uint32_t> out(num_tests_, 0);
  for (std::size_t t = 0; t < num_tests_; ++t) {
    const ResponseId r = observed[t];
    if (r == 0) continue;
    if (r == static_cast<ResponseId>(-1) || r >= rm.num_distinct(t)) {
      out[t] = static_cast<std::uint32_t>(num_outputs_ + 1);  // unknown
      continue;
    }
    out[t] = 1 + rm.diff_outputs(t, r).front();
  }
  return out;
}

std::vector<DiagnosisMatch> FirstFailDictionary::diagnose(
    const std::vector<std::uint32_t>& observed, std::size_t max_results) const {
  check_observation_size("FirstFailDictionary::diagnose: observed tests",
                         num_tests_, observed.size());
  std::vector<DiagnosisMatch> all(num_faults_);
  for (FaultId f = 0; f < num_faults_; ++f) {
    std::uint32_t mism = 0;
    for (std::size_t t = 0; t < num_tests_; ++t)
      if (entry(f, t) != observed[t]) ++mism;
    all[f] = {f, mism};
  }
  return rank_matches(std::move(all), max_results);
}

}  // namespace sddict
