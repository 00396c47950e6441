#ifndef AQP_TEXT_GRAM_KEY_TABLE_H_
#define AQP_TEXT_GRAM_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "text/qgram.h"

namespace aqp {
namespace text {

/// A frequency of 0 marks a free slot of a frequency table.
inline bool IsVacant(uint64_t frequency) { return frequency == 0; }

/// An empty list marks a free slot of a posting table.
template <typename T>
bool IsVacant(const std::vector<T>& postings) {
  return postings.empty();
}

/// \brief Flat open-addressed map from gram key to `Value` — the one
/// gram-keyed hash table of the engine (the gram order's frequencies,
/// the q-gram index's posting lists).
///
/// A power-of-two slot array with linear probing, kept at most half
/// full so every probe sequence reaches a free slot. The value lives in
/// the slot itself, so a lookup is one multiply-shift plus a short scan
/// of adjacent slots: no node allocation, no pointer chase. A slot is
/// free iff its value IsVacant() (frequency 0, empty list), so every
/// gram key — 0 included — is storable; a caller that claims a slot
/// with Insert() must leave its value non-vacant before the next call.
template <typename Value>
class GramKeyTable {
 public:
  /// The value stored under `key`, or nullptr if there is none.
  const Value* Find(GramKey key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = SlotOf(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (IsVacant(slot.value)) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Starts loading the home slot of `key` into the cache, so that a
  /// Find() of it issued a little later does not wait on memory;
  /// prefetching a batch of keys first overlaps their misses. A no-op
  /// on an empty table.
  void Prefetch(GramKey key) const {
    if (size_ == 0) return;
    __builtin_prefetch(&slots_[SlotOf(key)]);
  }

  /// The value stored under `key`, claiming a slot (value-initialized,
  /// hence vacant) when there is none. The reference is valid until
  /// the next Insert().
  Value& Insert(GramKey key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = SlotOf(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (IsVacant(slot.value)) {
        slot.key = key;
        ++size_;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
    }
  }

  /// Distinct keys stored.
  size_t size() const { return size_; }

  /// Calls `fn(key, value)` for every stored key, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!IsVacant(slot.value)) fn(slot.key, slot.value);
    }
  }

  /// Bytes of the slot array (values' own heap memory excluded).
  size_t SlotBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    GramKey key = 0;
    Value value{};
  };

  /// Table size of the first insert; doubled whenever it would pass
  /// half full.
  static constexpr size_t kInitialSlots = 64;

  /// Home slot: Fibonacci hashing onto the power-of-two table. Only
  /// valid while the table is non-empty.
  size_t SlotOf(GramKey key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Doubles the table (or creates it) and moves every entry over.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kInitialSlots : 2 * old.size();
    slots_ = std::vector<Slot>(capacity);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Slot& slot : old) {
      if (IsVacant(slot.value)) continue;
      size_t i = SlotOf(slot.key);
      while (!IsVacant(slots_[i].value)) i = (i + 1) & mask_;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_GRAM_KEY_TABLE_H_
