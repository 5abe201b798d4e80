#include "sim/testset.h"

#include <stdexcept>
#include <unordered_set>

#include "util/hash.h"

namespace sddict {

void TestSet::add(BitVec test) {
  if (test.size() != num_inputs_)
    throw std::invalid_argument("TestSet::add: wrong test width");
  tests_.push_back(std::move(test));
}

void TestSet::add_string(const std::string& bits) { add(BitVec::from_string(bits)); }

void TestSet::add_random(std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    BitVec t(num_inputs_);
    for (auto& w : t.mutable_words()) w = rng.next();
    t.normalize_tail();
    tests_.push_back(std::move(t));
  }
}

void TestSet::append(const TestSet& other) {
  if (other.num_inputs_ != num_inputs_)
    throw std::invalid_argument("TestSet::append: input count mismatch");
  for (const auto& t : other.tests_) tests_.push_back(t);
}

TestSet TestSet::subset(const std::vector<std::size_t>& indices) const {
  TestSet out(num_inputs_);
  for (std::size_t i : indices) out.add(tests_.at(i));
  return out;
}

void TestSet::dedupe() {
  std::unordered_set<Hash128, Hash128Hasher> seen;
  std::vector<BitVec> kept;
  kept.reserve(tests_.size());
  for (auto& t : tests_)
    if (seen.insert(hash_bitvec(t)).second) kept.push_back(std::move(t));
  tests_ = std::move(kept);
}

void TestSet::pack_batch(std::size_t first, std::size_t count,
                         std::vector<std::uint64_t>* words,
                         std::size_t lanes) const {
  if (count > 64 * lanes)
    throw std::invalid_argument("pack_batch: count > 64 * lanes");
  words->assign(num_inputs_ * lanes, 0);
  for (std::size_t t = 0; t < count; ++t) {
    const BitVec& test = tests_.at(first + t);
    const std::size_t l = t / 64;
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    for (std::size_t i = 0; i < num_inputs_; ++i)
      if (test.get(i)) (*words)[i * lanes + l] |= bit;
  }
}

}  // namespace sddict
