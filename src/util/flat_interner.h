// Dense ids for keys, in first-insertion order: the first key interned
// gets 0, the next new key 1, and so on. The table is open-addressed with
// linear probing, and every slot carries the generation it was written in,
// so clear() is O(1) and a table reused across many rounds allocates only
// while it grows to the largest round. Used where a hot loop groups items
// by a key once per round (partition refinement, Procedure 2, the
// response-matrix merge) and a node-based map would allocate per item.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace sddict {

template <typename Key, typename Hash>
class FlatInterner {
 public:
  // Forgets every key; the next new key gets id 0 again.
  void clear() {
    keys_.clear();
    if (++generation_ == 0) {  // wrapped: old stamps would read as live
      std::fill(slots_.begin(), slots_.end(), Slot{});
      generation_ = 1;
    }
  }

  // Id of `key`; a key not seen since the last clear() gets the next id.
  std::uint32_t intern(const Key& key) {
    if (2 * (keys_.size() + 1) > slots_.size()) grow();
    for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.generation != generation_) {
        s = {generation_, static_cast<std::uint32_t>(keys_.size())};
        keys_.push_back(key);
        return s.id;
      }
      if (keys_[s.id] == key) return s.id;
    }
  }

 private:
  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t id = 0;
  };

  // Fibonacci hashing: the top bits of hash * 2^64/phi, so keys that are
  // small consecutive integers still spread over the whole table.
  std::size_t bucket(const Key& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  // Doubles the table (16 slots minimum) and re-places the live keys.
  void grow() {
    const std::size_t cap = std::max<std::size_t>(16, 2 * slots_.size());
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    generation_ = 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t i = bucket(keys_[id]);
      while (slots_[i].generation == generation_) i = (i + 1) & mask_;
      slots_[i] = {generation_, id};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Key> keys_;  // keys_[id]
  std::uint32_t generation_ = 1;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace sddict
