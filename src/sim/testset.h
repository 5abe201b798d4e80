// A test set: an ordered list of input vectors for a combinational
// (full-scan) circuit. Tests are stored one BitVec per test, bit i = value
// of primary input i; helpers pack them 64-at-a-time for the bit-parallel
// simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.h"
#include "util/rng.h"

namespace sddict {

class TestSet {
 public:
  TestSet() = default;
  explicit TestSet(std::size_t num_inputs) : num_inputs_(num_inputs) {}

  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t size() const { return tests_.size(); }
  bool empty() const { return tests_.empty(); }

  const BitVec& operator[](std::size_t t) const { return tests_[t]; }
  const std::vector<BitVec>& tests() const { return tests_; }

  void add(BitVec test);
  void add_string(const std::string& bits);

  // Appends `count` uniformly random tests.
  void add_random(std::size_t count, Rng& rng);

  // Appends every test of `other` (same input count required).
  void append(const TestSet& other);

  // Keeps only tests at the given indices, in the given order.
  TestSet subset(const std::vector<std::size_t>& indices) const;

  // Removes duplicate tests, preserving first occurrences.
  void dedupe();

  // Packs tests [first, first+count) into `lanes` words per input:
  // word[i*lanes + l] bit t holds input i of test first + 64l + t.
  // count <= 64*lanes; missing slots are zero-filled.
  void pack_batch(std::size_t first, std::size_t count,
                  std::vector<std::uint64_t>* words,
                  std::size_t lanes = 1) const;

 private:
  std::size_t num_inputs_ = 0;
  std::vector<BitVec> tests_;
};

}  // namespace sddict
