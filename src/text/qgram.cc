#include "text/qgram.h"

#include <algorithm>
#include <cassert>

namespace aqp {
namespace text {

Status QGramOptions::Validate() const {
  if (q < 1 || q > 8) {
    return Status::InvalidArgument("q must be in [1, 8], got " +
                                   std::to_string(q));
  }
  if (pad && pad_left == pad_right) {
    return Status::InvalidArgument(
        "pad_left and pad_right must differ so left and right padding "
        "produce distinct grams");
  }
  return Status::OK();
}

void ExtractGramSequenceInto(std::string_view s, const QGramOptions& options,
                             std::vector<GramKey>* out) {
  const int q = options.q;
  assert(q >= 1 && q <= 8);
  out->clear();
  const size_t total = GramSequenceLength(s.size(), options);
  if (total == 0) return;
  out->reserve(total);
  // Slide a rolling q-byte window over pads + s + pads without
  // materializing the padded buffer; identical keys to PackWindow over
  // the padded string (big-endian byte packing).
  const uint64_t mask =
      q == 8 ? ~uint64_t{0} : ((uint64_t{1} << (8 * q)) - 1);
  uint64_t key = 0;
  size_t consumed = 0;
  const auto feed = [&](unsigned char c) {
    key = ((key << 8) | c) & mask;
    if (++consumed >= static_cast<size_t>(q)) out->push_back(key);
  };
  if (options.pad) {
    for (int i = 0; i < q - 1; ++i) feed(options.pad_left);
  }
  for (char c : s) feed(static_cast<unsigned char>(c));
  if (options.pad) {
    for (int i = 0; i < q - 1; ++i) feed(options.pad_right);
  }
  assert(out->size() == total);
}

std::vector<GramKey> ExtractGramSequence(std::string_view s,
                                         const QGramOptions& options) {
  std::vector<GramKey> out;
  ExtractGramSequenceInto(s, options, &out);
  return out;
}

size_t GramSequenceLength(size_t string_length, const QGramOptions& options) {
  const size_t q = static_cast<size_t>(options.q);
  if (options.pad) {
    const size_t padded = string_length + 2 * (q - 1);
    return padded >= q ? padded - q + 1 : 0;
  }
  return string_length >= q ? string_length - q + 1 : 0;
}

GramSet GramSet::Of(std::string_view s, const QGramOptions& options) {
  GramSet set;
  set.grams_ = ExtractGramSequence(s, options);
  std::sort(set.grams_.begin(), set.grams_.end());
  set.grams_.erase(std::unique(set.grams_.begin(), set.grams_.end()),
                   set.grams_.end());
  return set;
}

GramSet GramSet::OfUsingScratch(std::string_view s,
                                const QGramOptions& options,
                                std::vector<GramKey>* scratch) {
  ExtractGramSequenceInto(s, options, scratch);
  std::sort(scratch->begin(), scratch->end());
  const auto last = std::unique(scratch->begin(), scratch->end());
  GramSet set;
  set.grams_.assign(scratch->begin(), last);
  return set;
}

bool GramSet::Contains(GramKey key) const {
  return std::binary_search(grams_.begin(), grams_.end(), key);
}

size_t GramSet::OverlapWith(const GramSet& other) const {
  size_t i = 0, j = 0, overlap = 0;
  while (i < grams_.size() && j < other.grams_.size()) {
    if (grams_[i] == other.grams_[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (grams_[i] < other.grams_[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

size_t GramSet::OverlapAtLeast(const GramSet& other, size_t required) const {
  const size_t na = grams_.size();
  const size_t nb = other.grams_.size();
  if (required > na || required > nb) return 0;
  // overlap + (grams left on a side) starts at that side's size, is
  // unchanged by a shared gram, and drops by one for each gram the side
  // skips; once either side has skipped more than size - required
  // grams, the overlap can no longer reach `required`.
  size_t skips_a = na - required;
  size_t skips_b = nb - required;
  size_t i = 0, j = 0, overlap = 0;
  while (i < na && j < nb) {
    const GramKey a = grams_[i];
    const GramKey b = other.grams_[j];
    if (a == b) {
      ++overlap;
      ++i;
      ++j;
    } else if (a < b) {
      if (skips_a-- == 0) return overlap;
      ++i;
    } else {
      if (skips_b-- == 0) return overlap;
      ++j;
    }
  }
  return overlap;
}

std::string GramKeyToString(GramKey key, int q) {
  std::string out(static_cast<size_t>(q), '\0');
  for (int i = q - 1; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(key & 0xff);
    key >>= 8;
  }
  return out;
}

}  // namespace text
}  // namespace aqp
