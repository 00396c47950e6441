#ifndef AQP_TEXT_GRAM_ORDER_H_
#define AQP_TEXT_GRAM_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "text/gram_key_table.h"
#include "text/qgram.h"
#include "text/similarity.h"

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
  /// A frequency must stay below 2^32 (asserted in Debug builds), so a
  /// prefix ranks each gram by one 64-bit key (OrderedPrefixInto); the
  /// engines sample at most 2 × 256 keys.
  void AddFrequency(GramKey key, uint64_t count);

  /// Sampled frequency of a gram (0 if never seen).
  uint64_t FrequencyOf(GramKey key) const {
    const uint64_t* frequency = frequencies_.Find(key);
    return frequency == nullptr ? 0 : *frequency;
  }

  /// Starts loading the frequency-table slot of `key` (see
  /// GramKeyTable::Prefetch).
  void PrefetchFrequency(GramKey key) const { frequencies_.Prefetch(key); }

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
  size_t distinct() const { return frequencies_.size(); }

  /// Two orders are equal iff their sampled frequency tables are
  /// (however the samples were inserted).
  bool operator==(const GramOrder& other) const;

 private:
  /// Sampled frequencies, looked up once per gram of a tuple when its
  /// ordered prefix is computed (OrderedPrefixInto).
  GramKeyTable<uint64_t> frequencies_;
  std::vector<GramKey> scratch_;
};

/// \brief Which grams of a gram set a filtered q-gram index posts and a
/// filtered probe scans: the set's grams ascending in `order` (gram-key
/// order when null), cut to the first PrefixLengthFor() of them under
/// prefix filtering, all of them otherwise.
///
/// Posting and probing under one rule is what makes the prefix and
/// positional filters sound, so a tuple's ordered prefix is a pure
/// function of (its gram set, the rule) and can be computed once and
/// shared by its index insert and every probe it makes.
struct PrefixRule {
  std::shared_ptr<const GramOrder> order;
  SimilarityMeasure measure = SimilarityMeasure::kJaccard;
  double threshold = 0.85;
  bool prefix = true;

  /// Number of ordered grams the rule keeps of a set with `set_size`
  /// grams.
  size_t LengthFor(size_t set_size) const {
    return prefix ? PrefixLengthFor(measure, set_size, threshold) : set_size;
  }

  /// Same order object, predicate and cut.
  friend bool operator==(const PrefixRule& a, const PrefixRule& b) {
    return a.order == b.order && a.measure == b.measure &&
           a.threshold == b.threshold && a.prefix == b.prefix;
  }
};

/// \brief A tuple's ordered prefix: positions into its GramSet's
/// key-sorted grams(), ascending in the rule's gram order.
class PrefixView {
 public:
  PrefixView() = default;
  PrefixView(const uint32_t* positions, size_t size)
      : positions_(positions), size_(size) {}

  size_t size() const { return size_; }
  uint32_t operator[](size_t i) const { return positions_[i]; }
  const uint32_t* begin() const { return positions_; }
  const uint32_t* end() const { return positions_ + size_; }

 private:
  const uint32_t* positions_ = nullptr;
  size_t size_ = 0;
};

/// \brief Appends to `*out` the positions (into `set.grams()`) of the
/// first `rule.LengthFor(set.size())` grams of `set` in the rule's
/// order — the one place a gram set is ranked for the filtered index
/// and probe. Ties in frequency fall back to key order, which is
/// position order because grams() is key-sorted, so ranking (frequency,
/// position) realizes the order's (frequency, key); each gram is ranked
/// by the one key `frequency << 32 | position`. `scratch` is reusable
/// working memory.
void OrderedPrefixInto(const GramSet& set, const PrefixRule& rule,
                       std::vector<uint64_t>* scratch,
                       std::vector<uint32_t>* out);

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_GRAM_ORDER_H_
