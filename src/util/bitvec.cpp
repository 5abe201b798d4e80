#include "util/bitvec.h"

#include <bit>
#include <stdexcept>

namespace sddict {

BitVec::BitVec(std::size_t nbits, bool fill) : BitVec(nbits) {
  if (fill) set_all();
}

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '1')
      v.set(i, true);
    else if (s[i] != '0')
      throw std::invalid_argument("BitVec::from_string: bad character");
  }
  return v;
}

void BitVec::set_all() {
  for (auto& w : words_) w = ~std::uint64_t{0};
  normalize_tail();
}

void BitVec::push_back(bool v) {
  ++nbits_;
  if (word_count(nbits_) > words_.size()) words_.push_back(0);
  set(nbits_ - 1, v);
}

std::size_t BitVec::count_ones() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t BitVec::first_difference(const BitVec& other) const {
  if (nbits_ != other.nbits_)
    throw std::invalid_argument("BitVec::first_difference: size mismatch");
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    const std::uint64_t diff = words_[wi] ^ other.words_[wi];
    if (diff != 0)
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(diff));
  }
  return npos;
}

BitVec& BitVec::operator^=(const BitVec& other) {
  if (nbits_ != other.nbits_) throw std::invalid_argument("BitVec: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  if (nbits_ != other.nbits_) throw std::invalid_argument("BitVec: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  if (nbits_ != other.nbits_) throw std::invalid_argument("BitVec: size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

bool BitVec::operator<(const BitVec& other) const {
  if (nbits_ != other.nbits_) return nbits_ < other.nbits_;
  for (std::size_t i = 0; i < nbits_; ++i) {
    const bool a = get(i);
    const bool b = other.get(i);
    if (a != b) return b;  // a==0, b==1 -> a < b
  }
  return false;
}

std::string BitVec::to_string() const {
  std::string s(nbits_, '0');
  for (std::size_t i = 0; i < nbits_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

void BitVec::normalize_tail() {
  const std::size_t rem = nbits_ & 63;
  if (rem != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << rem) - 1;
}

}  // namespace sddict
