#include "text/gram_order.h"

namespace aqp {
namespace text {

namespace {

/// Table size of the first insert; doubled whenever it would pass half
/// full.
constexpr size_t kInitialSlots = 64;

}  // namespace

void GramOrder::AddSample(std::string_view s, const QGramOptions& options) {
  const GramSet set = GramSet::OfUsingScratch(s, options, &scratch_);
  for (GramKey key : set.grams()) AddFrequency(key, 1);
}

void GramOrder::AddFrequency(GramKey key, uint64_t count) {
  if (count == 0) return;
  if (2 * (size_ + 1) > slots_.size()) Grow();
  for (size_t i = SlotOf(key);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.frequency == 0) {
      slot.key = key;
      slot.frequency = count;
      ++size_;
      return;
    }
    if (slot.key == key) {
      slot.frequency += count;
      return;
    }
  }
}

void GramOrder::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t capacity = old.empty() ? kInitialSlots : 2 * old.size();
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (const Slot& slot : old) {
    if (slot.frequency == 0) continue;
    size_t i = SlotOf(slot.key);
    while (slots_[i].frequency != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

bool GramOrder::operator==(const GramOrder& other) const {
  if (size_ != other.size_) return false;
  for (const Slot& slot : slots_) {
    if (slot.frequency != 0 && other.FrequencyOf(slot.key) != slot.frequency) {
      return false;
    }
  }
  return true;
}

}  // namespace text
}  // namespace aqp
