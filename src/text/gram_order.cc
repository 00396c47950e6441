#include "text/gram_order.h"

#include <algorithm>
#include <cassert>

namespace aqp {
namespace text {

void GramOrder::AddSample(std::string_view s, const QGramOptions& options) {
  const GramSet set = GramSet::OfUsingScratch(s, options, &scratch_);
  for (GramKey key : set.grams()) AddFrequency(key, 1);
}

void GramOrder::AddFrequency(GramKey key, uint64_t count) {
  if (count == 0) return;
  frequencies_.Insert(key) += count;
}

bool GramOrder::operator==(const GramOrder& other) const {
  if (distinct() != other.distinct()) return false;
  bool equal = true;
  frequencies_.ForEach([&](GramKey key, uint64_t frequency) {
    equal = equal && other.FrequencyOf(key) == frequency;
  });
  return equal;
}

void OrderedPrefixInto(const GramSet& set, const PrefixRule& rule,
                       std::vector<std::pair<uint64_t, uint32_t>>* scratch,
                       std::vector<uint32_t>* out) {
  const size_t g = set.size();
  const size_t length = rule.LengthFor(g);
  assert(length <= g);
  if (rule.order == nullptr) {
    // Gram-key order: grams() is already ascending.
    for (size_t i = 0; i < length; ++i) {
      out->push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  const std::vector<GramKey>& grams = set.grams();
  scratch->clear();
  scratch->reserve(g);
  for (size_t i = 0; i < g; ++i) {
    scratch->emplace_back(rule.order->FrequencyOf(grams[i]),
                          static_cast<uint32_t>(i));
  }
  // Only the kept grams need their rank; the pairs are distinct, so the
  // partial sort yields exactly the full sort's first `length` entries.
  const auto kept = scratch->begin() + static_cast<ptrdiff_t>(length);
  std::partial_sort(scratch->begin(), kept, scratch->end());
  for (auto it = scratch->begin(); it != kept; ++it) out->push_back(it->second);
}

}  // namespace text
}  // namespace aqp
