#ifndef AQP_JOIN_QGRAM_INDEX_H_
#define AQP_JOIN_QGRAM_INDEX_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "join/filter.h"
#include "storage/tuple_store.h"
#include "text/gram_key_table.h"
#include "text/gram_order.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

/// \brief One entry of a payload posting list (filtered layout): the
/// tuple plus the two per-tuple facts the length and positional
/// filters prune on, so the probe never dereferences a store row to
/// decide a skip.
struct GramPosting {
  storage::TupleId id = 0;
  /// Gram-set size g_s of the stored tuple (length filter).
  uint32_t gram_count = 0;
  /// 0-based index of this gram in the tuple's globally ordered gram
  /// list (positional filter).
  uint32_t position = 0;
};

/// \brief SSHJoin's per-operand structure: q-gram → tuples containing
/// it (Fig. 3, right).
///
/// The posting list length of a gram is its *frequency* — the quantity
/// SSHJoin's probe uses to order grams rarest-first (§2.2). Per-tuple
/// gram sets are served by the TupleStore's gram cache when the store
/// has one with matching options (the engine's stores always do), so
/// the index, the candidate verifier, and switch catch-up all share
/// one extraction per tuple. Stores without a compatible cache fall
/// back to a local copy (tests, ad-hoc tooling).
///
/// Two posting layouts exist:
///  - *plain* (no filters): every gram of every tuple is posted as a
///    bare TupleId — the paper's structure, unchanged;
///  - *payload* (any filter on): postings carry GramPosting entries,
///    and with prefix filtering each tuple is posted only under its
///    g-k+1 prefix grams in the filter's fixed global gram order,
///    shrinking both posting lists and index memory. Probe-side
///    counting stays sound via the prefix-overlap argument (see
///    join/filter.h).
///
/// Each layout keeps its posting lists in one flat gram-key table
/// (text::GramKeyTable): the list lives in the table slot, so a probe's
/// lookup is a multiply-shift and a short scan of adjacent slots. In
/// the payload layout a tuple's posted grams are its ordered prefix
/// (prefix_rule()), read from the store's prefix lane when the store
/// holds one under this index's rule — ranked once per tuple and shared
/// with the tuple's own probes — and ranked locally otherwise.
///
/// Like ExactIndex, the structure lags its TupleStore and is advanced
/// by CatchUpWith(). The store bound by the first CatchUpWith() call
/// must be the one all later calls pass (checked by assert).
class QGramIndex {
 public:
  /// Plain layout: every gram posted, bare TupleId postings.
  explicit QGramIndex(text::QGramOptions options)
      : QGramIndex(options, ApproxFilterOptions{},
                   text::SimilarityMeasure::kJaccard, 0.85) {}

  /// Filter-aware layout: when `filter.any()`, postings carry payload
  /// entries; with `filter.prefix` only the g-k+1 prefix grams (under
  /// `filter.gram_order`, measure and threshold fixing k per tuple)
  /// are posted. With no filter enabled this is the plain layout.
  QGramIndex(text::QGramOptions options, ApproxFilterOptions filter,
             text::SimilarityMeasure measure, double sim_threshold)
      : options_(options),
        filter_(std::move(filter)),
        rule_{filter_.gram_order, measure, sim_threshold, filter_.prefix} {}

  /// Indexes store tuples [watermark, store.size()); returns how many
  /// tuples were inserted.
  size_t CatchUpWith(const storage::TupleStore& store);

  /// Posting list of a gram (tuples whose join attribute contains it),
  /// or nullptr if the gram is unknown. Plain layout only.
  const std::vector<storage::TupleId>* Postings(text::GramKey key) const {
    assert(!payload_mode() && "plain postings unavailable in payload mode");
    return postings_.Find(key);
  }

  /// Payload posting list of a gram, or nullptr if the gram is
  /// unknown. Payload layout only.
  const std::vector<GramPosting>* PayloadPostings(text::GramKey key) const {
    assert(payload_mode() && "payload postings require an enabled filter");
    return payload_postings_.Find(key);
  }

  /// Starts loading the table slot of a gram's payload posting list
  /// (text::GramKeyTable::Prefetch). Payload layout only.
  void PrefetchPayloadPostings(text::GramKey key) const {
    assert(payload_mode() && "payload postings require an enabled filter");
    payload_postings_.Prefetch(key);
  }

  /// True iff the index stores payload postings (some filter enabled).
  bool payload_mode() const { return filter_.any(); }

  /// The filter configuration this index was built for (gram order
  /// included, once installed).
  const ApproxFilterOptions& filter() const { return filter_; }

  /// Similarity measure and threshold fixing each tuple's prefix
  /// length (payload layout).
  text::SimilarityMeasure measure() const { return rule_.measure; }
  double sim_threshold() const { return rule_.threshold; }

  /// The rule a payload posting's grams are ranked and cut under: the
  /// filter's gram order, measure and threshold, and its prefix switch.
  const text::PrefixRule& prefix_rule() const { return rule_; }

  /// Installs the global gram order postings are ordered under. Only
  /// before the first insert (asserted): a tuple posted under one
  /// order and probed under another would break the prefix argument.
  void SetGramOrder(std::shared_ptr<const text::GramOrder> order) {
    assert(watermark_ == 0 && "gram order must be frozen before inserts");
    filter_.gram_order = order;
    rule_.order = std::move(order);
  }

  /// Frequency of a gram: number of posting entries for it. With
  /// prefix filtering this counts *posted* (prefix) occurrences, which
  /// is what probe cost accounting observes.
  size_t Frequency(text::GramKey key) const;

  /// Gram-set size of an indexed tuple (id < watermark()).
  size_t GramSetSize(storage::TupleId id) const {
    return GramSetOf(id).size();
  }

  /// Gram set of an indexed tuple — the store's cached set when the
  /// bound store serves it, otherwise the local fallback copy.
  const text::GramSet& GramSetOf(storage::TupleId id) const {
    return store_backed_ ? store_->Grams(id) : local_gram_sets_[id];
  }

  /// Starts loading the gram set of an indexed tuple: its header, or
  /// the head of its sorted keys, which reads the header. A caller
  /// walking candidates issues the header some steps before the keys.
  void PrefetchGramSet(storage::TupleId id) const {
    __builtin_prefetch(&GramSetOf(id));
  }
  void PrefetchGramKeys(storage::TupleId id) const {
    __builtin_prefetch(GramSetOf(id).grams().data());
  }

  /// Indexed tuples whose join attribute produced no grams (empty
  /// strings when padding is off); they can only match each other.
  const std::vector<storage::TupleId>& empty_gram_tuples() const {
    return empty_gram_tuples_;
  }

  /// Number of store tuples indexed so far.
  size_t watermark() const { return watermark_; }

  /// Number of distinct grams in the index.
  size_t distinct_grams() const {
    return payload_mode() ? payload_postings_.size() : postings_.size();
  }

  /// Average posting-list length B_ap (Table 1's cost parameter).
  double AveragePostingLength() const;

  /// Extraction options.
  const text::QGramOptions& options() const { return options_; }

  /// Rough heap footprint in bytes (§2.3: n · (|jA|+q-1) · p), covering
  /// whichever posting layout is active — the table's slot array and
  /// payload entries included. Gram sets and prefixes served by the
  /// store are accounted there, not here.
  size_t ApproximateMemoryUsage() const;

 private:
  text::QGramOptions options_;
  ApproxFilterOptions filter_;
  /// The payload layout's ranking rule: filter_'s gram order and
  /// prefix switch, with the predicate's measure and threshold.
  text::PrefixRule rule_;
  /// Plain layout postings (filter_.any() == false).
  text::GramKeyTable<std::vector<storage::TupleId>> postings_;
  /// Payload layout postings (filter_.any() == true).
  text::GramKeyTable<std::vector<GramPosting>> payload_postings_;
  /// Bound store (set by the first CatchUpWith); store_backed_ records
  /// whether its gram cache serves this index's options.
  const storage::TupleStore* store_ = nullptr;
  bool store_backed_ = false;
  /// Fallback gram sets for stores without a compatible cache.
  std::vector<text::GramSet> local_gram_sets_;
  std::vector<storage::TupleId> empty_gram_tuples_;
  size_t watermark_ = 0;
  size_t total_postings_ = 0;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_QGRAM_INDEX_H_
