#include "dict/partition.h"

#include <algorithm>
#include <numeric>

namespace sddict {

Partition::Partition(std::size_t n)
    : elems_(n), class_of_(n, 0), open_pairs_(pairs(n)) {
  std::iota(elems_.begin(), elems_.end(), std::uint32_t{0});
  if (n > 0) ranges_.push_back({0, static_cast<std::uint32_t>(n)});
  if (n > 1) open_.push_back(0);
}

std::uint64_t Partition::refine(const std::vector<std::uint32_t>& labels) {
  return refine_with([&](std::uint32_t e) { return labels[e]; });
}

std::uint64_t Partition::split(std::size_t c) {
  const Range r = ranges_[c];
  const std::size_t m = r.end - r.begin;

  // Dense group ids in order of first appearance, and group sizes.
  groups_.clear();
  group_end_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t g = groups_.intern(labels_[i]);
    if (g == group_end_.size()) group_end_.push_back(0);
    ++group_end_[g];
    labels_[i] = g;
  }

  // Counting pass: sizes become start offsets, then the scatter advances
  // each to its group's end.
  std::uint64_t separated = pairs(m);
  std::uint32_t offset = 0;
  for (std::uint32_t& g : group_end_) {
    const std::uint32_t size = g;
    separated -= pairs(size);
    g = offset;
    offset += size;
  }
  if (scattered_.size() < m) scattered_.resize(m);
  std::uint32_t* e = elems_.data() + r.begin;
  for (std::size_t i = 0; i < m; ++i)
    scattered_[group_end_[labels_[i]]++] = e[i];
  std::copy_n(scattered_.begin(), m, e);

  // The first member's group keeps id c; the others become new classes.
  ranges_[c].end = r.begin + group_end_[0];
  for (std::size_t g = 1; g < group_end_.size(); ++g) {
    const auto id = static_cast<std::uint32_t>(ranges_.size());
    const Range part{r.begin + group_end_[g - 1], r.begin + group_end_[g]};
    ranges_.push_back(part);
    for (std::uint32_t i = part.begin; i < part.end; ++i)
      class_of_[elems_[i]] = id;
  }
  return separated;
}

void Partition::update_open(std::size_t first_new) {
  // Surviving ids are all below first_new and new ids ascend from it, so
  // the list stays sorted.
  const auto is_open = [&](std::uint32_t c) {
    return ranges_[c].end - ranges_[c].begin >= 2;
  };
  std::erase_if(open_, [&](std::uint32_t c) { return !is_open(c); });
  for (std::size_t c = first_new; c < ranges_.size(); ++c)
    if (is_open(static_cast<std::uint32_t>(c)))
      open_.push_back(static_cast<std::uint32_t>(c));
}

}  // namespace sddict
