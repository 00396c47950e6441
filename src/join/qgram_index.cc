#include "join/qgram_index.h"

#include <algorithm>
#include <cassert>

namespace aqp {
namespace join {

namespace {

/// First reservation of a posting vector. Posting lists grow one tuple
/// at a time during catch-up; reserving a few slots up front removes
/// the 1→2→4 reallocation churn every new gram would otherwise pay.
constexpr size_t kInitialPostingCapacity = 4;

/// Appends one posting to `key`'s list, creating the list on first use.
template <typename Posting>
void Post(text::GramKeyTable<std::vector<Posting>>& table, text::GramKey key,
          const Posting& posting) {
  std::vector<Posting>& postings = table.Insert(key);
  if (postings.capacity() == 0) postings.reserve(kInitialPostingCapacity);
  postings.push_back(posting);
}

}  // namespace

size_t QGramIndex::CatchUpWith(const storage::TupleStore& store) {
  assert((store_ == nullptr || store_ == &store) &&
         "QGramIndex is bound to one TupleStore");
  if (store_ == nullptr) {
    store_ = &store;
    store_backed_ =
        store.gram_cache_enabled() && store.gram_options() == options_;
  }
  const size_t target = store.size();
  size_t inserted = 0;
  if (!store_backed_) local_gram_sets_.reserve(target);
  const bool payload = payload_mode();
  // Payload postings go under each tuple's ordered prefix: the store's
  // lane when it ranks under this index's rule (the engine's stores
  // do), else ranked here.
  const bool lane_backed = payload && store_backed_ &&
                           store.prefix_rule() != nullptr &&
                           *store.prefix_rule() == rule_;
  std::vector<uint32_t> local_prefix;
  std::vector<uint64_t> rank_scratch;
  for (size_t i = watermark_; i < target; ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    if (!store_backed_) {
      local_gram_sets_.push_back(
          text::GramSet::Of(store.JoinKey(id), options_));
    }
    const text::GramSet& set = GramSetOf(id);
    if (set.empty()) {
      empty_gram_tuples_.push_back(id);
    } else if (!payload) {
      for (text::GramKey key : set.grams()) {
        Post(postings_, key, id);
        ++total_postings_;
      }
    } else {
      // Payload layout: post the tuple's ordered prefix (all g grams
      // without prefix filtering), each entry carrying the tuple's gram
      // count and the gram's position in the ordered list.
      text::PrefixView prefix;
      if (lane_backed) {
        prefix = store.Prefix(id);
      } else {
        local_prefix.clear();
        text::OrderedPrefixInto(set, rule_, &rank_scratch, &local_prefix);
        prefix = text::PrefixView(local_prefix.data(), local_prefix.size());
      }
      const auto g = static_cast<uint32_t>(set.size());
      for (size_t j = 0; j < prefix.size(); ++j) {
        Post(payload_postings_, set.grams()[prefix[j]],
             GramPosting{id, g, static_cast<uint32_t>(j)});
      }
      total_postings_ += prefix.size();
    }
    ++inserted;
  }
  watermark_ = target;
  return inserted;
}

size_t QGramIndex::Frequency(text::GramKey key) const {
  if (payload_mode()) {
    const std::vector<GramPosting>* postings = payload_postings_.Find(key);
    return postings == nullptr ? 0 : postings->size();
  }
  const std::vector<storage::TupleId>* postings = postings_.Find(key);
  return postings == nullptr ? 0 : postings->size();
}

double QGramIndex::AveragePostingLength() const {
  const size_t distinct = distinct_grams();
  if (distinct == 0) return 0.0;
  return static_cast<double>(total_postings_) /
         static_cast<double>(distinct);
}

size_t QGramIndex::ApproximateMemoryUsage() const {
  // Slot arrays (key + list header per slot, free slots included),
  // then the lists' entries.
  size_t bytes = postings_.SlotBytes() + payload_postings_.SlotBytes();
  postings_.ForEach([&bytes](text::GramKey, const auto& postings) {
    bytes += postings.capacity() * sizeof(storage::TupleId);
  });
  payload_postings_.ForEach([&bytes](text::GramKey, const auto& postings) {
    bytes += postings.capacity() * sizeof(GramPosting);
  });
  for (const text::GramSet& set : local_gram_sets_) {
    bytes += set.grams().capacity() * sizeof(text::GramKey) + sizeof(set);
  }
  bytes += empty_gram_tuples_.capacity() * sizeof(storage::TupleId);
  return bytes;
}

}  // namespace join
}  // namespace aqp
