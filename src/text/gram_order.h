#ifndef AQP_TEXT_GRAM_ORDER_H_
#define AQP_TEXT_GRAM_ORDER_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "text/qgram.h"

namespace aqp {
namespace text {

/// \brief A *fixed* global total order over gram keys, shared by the
/// prefix-filtered q-gram index and its probes.
///
/// Prefix filtering is sound only if both sides of a join pick their
/// g-k+1 prefix grams under one common total order (the standard
/// prefix-overlap argument breaks if the order shifts between the time
/// a tuple is posted and the time it is probed). A streaming index can
/// therefore not order by its own evolving posting frequencies — the
/// order must be frozen before the first tuple is indexed.
///
/// An order is (frequency, key) ascending: grams not seen while
/// sampling have frequency 0, so a default-constructed order degrades
/// to plain gram-key order — always sound, but it lets common grams
/// into every prefix. Sampling representative input (AddSample) makes
/// the prefix grams the *rare* grams, which is what keeps posting lists
/// short; the order stays exact either way, only probe cost changes.
/// The join engines sample the head of their own input when the caller
/// supplies no order (join::GramOrderSampler).
class GramOrder {
 public:
  /// Pure gram-key order (every frequency 0).
  GramOrder() = default;

  /// Accumulates the distinct grams of `s` into the frequency table
  /// (distinct per string, mirroring posting-list lengths). Must only
  /// be called while building the order, before any index or probe
  /// uses it.
  void AddSample(std::string_view s, const QGramOptions& options);

  /// Adds `count` observations of one gram (tests, precomputed tables).
  void AddFrequency(GramKey key, uint64_t count);

  /// Sampled frequency of a gram (0 if never seen).
  uint64_t FrequencyOf(GramKey key) const {
    if (size_ == 0) return 0;
    for (size_t i = SlotOf(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.frequency == 0) return 0;
      if (slot.key == key) return slot.frequency;
    }
  }

  /// The sort key realizing the order: ascending (frequency, key) =
  /// rarest first, ties broken by the exact gram identity.
  std::pair<uint64_t, GramKey> SortKeyFor(GramKey key) const {
    return {FrequencyOf(key), key};
  }

  /// True iff `a` precedes `b` in this order.
  bool Less(GramKey a, GramKey b) const {
    return SortKeyFor(a) < SortKeyFor(b);
  }

  /// Distinct grams with a nonzero sampled frequency.
  size_t distinct() const { return size_; }

  /// Two orders are equal iff their sampled frequency tables are
  /// (however the samples were inserted).
  bool operator==(const GramOrder& other) const;

 private:
  /// One slot of the open-addressed frequency table; frequency 0 marks
  /// an empty slot, so every gram key (0 included) is storable.
  struct Slot {
    GramKey key = 0;
    uint64_t frequency = 0;
  };

  /// Home slot: Fibonacci hashing onto the power-of-two table. Only
  /// valid while the table is non-empty.
  size_t SlotOf(GramKey key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Doubles the table (or creates it) and reinserts every gram.
  void Grow();

  /// Linear probing over a power-of-two table kept at most half full,
  /// so every probe sequence reaches an empty slot. Probes look up
  /// every gram of every probe tuple, so the table is flat: no node
  /// allocation and no pointer chase per lookup.
  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  std::vector<GramKey> scratch_;
};

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_GRAM_ORDER_H_
