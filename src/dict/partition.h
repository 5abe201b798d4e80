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
// pass. A labeler that returns bool takes a two-way path instead: one
// stable pass per class moves the members that disagree with the first
// member into scratch and appends them, with no label interning. Both
// paths produce the same class ids, member order, open list and pair
// counts for the same labeling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
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

  // Same, with a callable element -> label. A callable returning bool
  // takes the two-way path.
  template <typename F>
  std::uint64_t refine_with(F&& label_of) {
    return refine_classes(open_, label_of);
  }

  // refine_with restricted to the open classes `ids`, ascending. The
  // caller vouches that every other class has a single label, so the
  // result equals refine_with's: the skipped classes would not split.
  template <typename F>
  std::uint64_t refine_classes(std::span<const std::uint32_t> ids,
                               F&& label_of) {
    std::uint64_t separated = 0;
    const std::size_t orig_classes = ranges_.size();
    for (std::uint32_t c : ids) {
      if constexpr (std::is_same_v<std::invoke_result_t<F&, std::uint32_t>,
                                   bool>)
        separated += split_two_way(c, label_of);
      else
        separated += split_labeled(c, label_of);
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

  // Labels class c's members into labels_ and splits it unless they all
  // agree; returns the pairs separated.
  template <typename F>
  std::uint64_t split_labeled(std::uint32_t c, F& label_of) {
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
    return uniform ? 0 : split(c);
  }

  // Splits class c by the labels in labels_[0, |c|); returns the pairs
  // separated.
  std::uint64_t split(std::size_t c);

  // Splits class c in two by a bool labeling in one stable pass: members
  // labeled like the first member are compacted in place, the others
  // collect in scratch and become a new class behind them. Branch-free:
  // each member is written to both sides and only one cursor advances.
  template <typename F>
  std::uint64_t split_two_way(std::uint32_t c, F& label_of) {
    const Range r = ranges_[c];
    const std::size_t m = r.end - r.begin;
    if (scattered_.size() < m) scattered_.resize(m);
    std::uint32_t* e = elems_.data() + r.begin;
    std::uint32_t* other = scattered_.data();
    const bool first = label_of(e[0]);
    std::size_t kept = 1;
    std::size_t moved = 0;
    for (std::size_t i = 1; i < m; ++i) {
      const std::uint32_t x = e[i];
      const bool same = label_of(x) == first;
      e[kept] = x;  // kept <= i: never an unread member
      other[moved] = x;
      kept += same;
      moved += !same;
    }
    if (moved == 0) return 0;
    std::copy_n(other, moved, e + kept);
    const auto id = static_cast<std::uint32_t>(ranges_.size());
    ranges_[c].end = r.begin + static_cast<std::uint32_t>(kept);
    ranges_.push_back({ranges_[c].end, r.end});
    for (std::size_t i = 0; i < moved; ++i) class_of_[other[i]] = id;
    return static_cast<std::uint64_t>(kept) * moved;
  }

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
