// Partition refinement over the fault set.
//
// At any point during dictionary construction, the pairs of faults that are
// *not yet distinguished* form an equivalence relation (two faults are
// related iff their dictionary rows so far are identical), so the paper's
// target pair set P is represented as a partition of F. Refining by one
// more dictionary column splits classes; the number of pairs separated by a
// split is exactly the paper's dist(z).
//
// Layout: the classic partition-refinement one. All elements sit in one
// permutation array and every class owns a contiguous range of it, so no
// class has a vector of its own. A refinement visits only the classes with
// two or more members (singletons can never split again) and writes each
// one's labels into reused scratch; a class whose labels all agree is left
// alone, and a class that splits is rearranged in place by one counting
// pass.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/flat_interner.h"

namespace sddict {

class Partition {
 public:
  // Starts as a single class containing all n elements.
  explicit Partition(std::size_t n);

  std::size_t num_elements() const { return class_of_.size(); }
  std::size_t num_classes() const { return ranges_.size(); }

  // Pairs still together: sum over classes of |C| choose 2.
  std::uint64_t indistinguished_pairs() const { return open_pairs_; }

  std::uint32_t class_of(std::size_t e) const { return class_of_[e]; }

  // Members of class c. Class ids are stable: a split class keeps its id
  // for the group of its first member, and the other groups get new ids in
  // order of first appearance. Members keep their relative order.
  std::span<const std::uint32_t> members(std::size_t c) const {
    return {elems_.data() + ranges_[c].begin,
            ranges_[c].end - ranges_[c].begin};
  }

  // Ids of the classes with two or more members, ascending: the only
  // classes that still hold indistinguished pairs.
  std::span<const std::uint32_t> open_classes() const { return open_; }

  // Splits every class by the given labeling; elements stay together iff
  // they share a label. Returns the number of pairs separated.
  std::uint64_t refine(const std::vector<std::uint32_t>& labels);

  // Same, with a callable element -> label.
  template <typename F>
  std::uint64_t refine_with(F&& label_of) {
    std::uint64_t separated = 0;
    const std::size_t orig_classes = ranges_.size();
    for (std::uint32_t c : open_) {
      const Range r = ranges_[c];
      const std::size_t m = r.end - r.begin;
      if (labels_.size() < m) labels_.resize(m);
      const std::uint32_t* e = elems_.data() + r.begin;
      const std::uint32_t first = label_of(e[0]);
      labels_[0] = first;
      bool uniform = true;
      for (std::size_t i = 1; i < m; ++i) {
        labels_[i] = label_of(e[i]);
        uniform &= labels_[i] == first;
      }
      if (!uniform) separated += split(c);
    }
    if (ranges_.size() > orig_classes) update_open(orig_classes);
    open_pairs_ -= separated;
    return separated;
  }

  // True when every class is a singleton (nothing left to distinguish).
  bool fully_refined() const { return open_.empty(); }

  static std::uint64_t pairs(std::size_t n) {
    return static_cast<std::uint64_t>(n) * (n - 1) / 2;
  }

 private:
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  // Splits class c by the labels in labels_[0, |c|); returns the pairs
  // separated.
  std::uint64_t split(std::size_t c);

  // Drops classes that became singletons from open_ and appends the open
  // classes created since `first_new`.
  void update_open(std::size_t first_new);

  std::vector<std::uint32_t> elems_;     // permutation; classes are ranges
  std::vector<std::uint32_t> class_of_;  // element -> class id
  std::vector<Range> ranges_;            // class id -> range of elems_
  std::vector<std::uint32_t> open_;      // classes of 2+ members, ascending
  std::uint64_t open_pairs_ = 0;
  // Scratch reused across refine calls.
  std::vector<std::uint32_t> labels_;
  std::vector<std::uint32_t> group_end_;
  std::vector<std::uint32_t> scattered_;
  FlatInterner<std::uint32_t, std::hash<std::uint32_t>> groups_;
};

}  // namespace sddict
