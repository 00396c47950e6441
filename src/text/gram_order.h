#ifndef AQP_TEXT_GRAM_ORDER_H_
#define AQP_TEXT_GRAM_ORDER_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
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
  void AddFrequency(GramKey key, uint64_t count) { freq_[key] += count; }

  /// Sampled frequency of a gram (0 if never seen).
  uint64_t FrequencyOf(GramKey key) const {
    auto it = freq_.find(key);
    return it == freq_.end() ? 0 : it->second;
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
  size_t distinct() const { return freq_.size(); }

  /// Two orders are equal iff their sampled frequency tables are.
  bool operator==(const GramOrder& other) const {
    return freq_ == other.freq_;
  }

 private:
  std::unordered_map<GramKey, uint64_t> freq_;
  std::vector<GramKey> scratch_;
};

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_GRAM_ORDER_H_
