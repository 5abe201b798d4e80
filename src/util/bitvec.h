// Dynamic bit vector used for output vectors, test patterns and dictionary
// rows. Bits are packed into 64-bit words; out-of-range bits of the last
// word are kept zero so whole-word equality and hashing are well defined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sddict {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits) : nbits_(nbits), words_(word_count(nbits), 0) {}
  BitVec(std::size_t nbits, bool fill);

  // Parses a string of '0'/'1' characters, most significant (index 0) first.
  static BitVec from_string(const std::string& s);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool get(std::size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  void set(std::size_t i, bool v) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  void set_all();

  // Appends one bit, growing the vector.
  void push_back(bool v);

  std::size_t count_ones() const;

  // Index of first bit where *this and other differ, or npos when equal.
  // Both vectors must have the same size.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first_difference(const BitVec& other) const;

  BitVec& operator^=(const BitVec& other);
  BitVec& operator&=(const BitVec& other);
  BitVec& operator|=(const BitVec& other);

  bool operator==(const BitVec& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  // Lexicographic on bit index 0..n-1; shorter vectors compare by size first.
  bool operator<(const BitVec& other) const;

  // '0'/'1' characters, bit index 0 first.
  std::string to_string() const;

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t>& mutable_words() { return words_; }

  // Zeroes any bits beyond size() in the last word. Call after writing
  // words directly through mutable_words().
  void normalize_tail();

  static std::size_t word_count(std::size_t nbits) { return (nbits + 63) / 64; }

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace sddict
