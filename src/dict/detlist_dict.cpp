#include "dict/detlist_dict.h"

#include <bit>

namespace sddict {

DetectionListDictionary DetectionListDictionary::build(const ResponseMatrix& rm) {
  DetectionListDictionary d;
  d.num_faults_ = rm.num_faults();
  d.lists_.assign(rm.num_tests(), {});
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    const auto col = rm.column(t);
    for (FaultId f = 0; f < rm.num_faults(); ++f)
      if (col[f] != 0) d.lists_[t].push_back(f);
  }

  d.partition_ = Partition(rm.num_faults());
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    const auto col = rm.column(t);
    d.partition_.refine_with([&](std::uint32_t f) { return col[f] != 0; });
    if (d.partition_.fully_refined()) break;
  }
  return d;
}

std::size_t DetectionListDictionary::total_entries() const {
  std::size_t n = 0;
  for (const auto& l : lists_) n += l.size();
  return n;
}

std::uint64_t DetectionListDictionary::size_bits() const {
  if (num_faults_ == 0) return 0;
  const std::uint64_t id_bits = std::bit_width(num_faults_ - 1);
  const std::uint64_t len_bits = std::bit_width(num_faults_);
  return total_entries() * id_bits + lists_.size() * len_bits;
}

double DetectionListDictionary::breakeven_density(std::size_t num_faults) {
  if (num_faults <= 1) return 1.0;
  return 1.0 / static_cast<double>(std::bit_width(num_faults - 1));
}

}  // namespace sddict
