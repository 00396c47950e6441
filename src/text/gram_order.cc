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
  uint64_t& frequency = frequencies_.Insert(key);
  frequency += count;
  assert(frequency < (uint64_t{1} << 32) &&
         "gram frequency outgrew OrderedPrefixInto's 32-bit rank field");
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
                       std::vector<uint64_t>* scratch,
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
  const GramOrder& order = *rule.order;
  const std::vector<GramKey>& grams = set.grams();
  // Issue every frequency-table load before the first one is read.
  for (GramKey key : grams) order.PrefetchFrequency(key);
  // One key per gram, frequency above position: frequencies stay below
  // 2^32 (GramOrder::AddFrequency) and positions below g, so comparing
  // keys compares (frequency, position) pairs.
  scratch->resize(g);
  uint64_t* const keys = scratch->data();
  for (size_t i = 0; i < g; ++i) {
    keys[i] = order.FrequencyOf(grams[i]) << 32 | i;
  }
  // Only the kept grams need their rank; the keys are distinct, so
  // selecting them and sorting just those yields exactly the full
  // sort's first `length` entries.
  uint64_t* const kept = keys + length;
  std::nth_element(keys, kept, keys + g);
  std::sort(keys, kept);
  for (const uint64_t* it = keys; it != kept; ++it) {
    out->push_back(static_cast<uint32_t>(*it));
  }
}

}  // namespace text
}  // namespace aqp
