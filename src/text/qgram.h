#ifndef AQP_TEXT_QGRAM_H_
#define AQP_TEXT_QGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace aqp {
namespace text {

/// A q-gram packed into a 64-bit key (q <= 8 bytes, big-endian), so
/// q-gram identity is exact — no hash collisions in the inverted index.
using GramKey = uint64_t;

/// \brief Options controlling q-gram extraction.
///
/// With padding enabled (the default, as in Gravano et al. and as
/// implied by the paper's gram count |jA| + q - 1), the string is
/// extended with q-1 copies of `pad_left` on the left and q-1 copies of
/// `pad_right` on the right before sliding the window.
struct QGramOptions {
  /// Window width; the paper uses q = 3. Must be in [1, 8].
  int q = 3;
  /// Whether to pad the string ends.
  bool pad = true;
  /// Padding bytes; control characters avoid collisions with data.
  char pad_left = '\x01';
  char pad_right = '\x02';

  /// Validates the option combination.
  Status Validate() const;

  /// Two option sets extract identical grams iff they compare equal
  /// (gram-cache compatibility checks).
  friend bool operator==(const QGramOptions& a, const QGramOptions& b) {
    return a.q == b.q && a.pad == b.pad && a.pad_left == b.pad_left &&
           a.pad_right == b.pad_right;
  }
  friend bool operator!=(const QGramOptions& a, const QGramOptions& b) {
    return !(a == b);
  }
};

/// \brief A deduplicated, sorted set of q-grams of one string.
///
/// The paper (§2.2) defines q(s) as the *set* of substrings, and the
/// Jaccard coefficient is computed on sets; GramSet is that
/// representation, with O(|a|+|b|) merge-based intersection.
class GramSet {
 public:
  GramSet() = default;

  /// Builds the gram set of `s` under `options`.
  static GramSet Of(std::string_view s, const QGramOptions& options);

  /// Builds the gram set of `s` using `*scratch` for the intermediate
  /// gram sequence, so repeated extraction (store gram-cache fills,
  /// probe loops) reuses one buffer instead of allocating per call. The
  /// returned set's vector is sized exactly to the deduplicated grams.
  static GramSet OfUsingScratch(std::string_view s,
                                const QGramOptions& options,
                                std::vector<GramKey>* scratch);

  /// Number of distinct q-grams.
  size_t size() const { return grams_.size(); }
  bool empty() const { return grams_.empty(); }

  /// Sorted distinct gram keys.
  const std::vector<GramKey>& grams() const { return grams_; }

  /// True iff `key` is a member (binary search).
  bool Contains(GramKey key) const;

  /// Size of the intersection with another gram set.
  size_t OverlapWith(const GramSet& other) const;

  /// Bounded intersection: the exact overlap when it is at least
  /// `required`; otherwise some value below `required`. The merge stops
  /// as soon as the overlap so far plus the shorter remaining side can
  /// no longer reach `required`, so a candidate that cannot pass a
  /// minimum-overlap test costs only a few mismatches.
  size_t OverlapAtLeast(const GramSet& other, size_t required) const;

  friend bool operator==(const GramSet& a, const GramSet& b) {
    return a.grams_ == b.grams_;
  }

 private:
  std::vector<GramKey> grams_;
};

/// Extracts the full q-gram *sequence* of `s` (duplicates preserved, in
/// positional order). With padding the sequence has exactly
/// max(0, |s| + q - 1) elements; without padding, max(0, |s| - q + 1).
std::vector<GramKey> ExtractGramSequence(std::string_view s,
                                         const QGramOptions& options);

/// Append-free variant: clears `*out` and fills it with the gram
/// sequence, reusing its capacity. Pads are fed through the rolling
/// window arithmetically, so no padded string copy is materialized —
/// this is the allocation-free kernel of every gram extraction.
void ExtractGramSequenceInto(std::string_view s, const QGramOptions& options,
                             std::vector<GramKey>* out);

/// Number of grams ExtractGramSequence would produce, without
/// extracting them.
size_t GramSequenceLength(size_t string_length, const QGramOptions& options);

/// Unpacks a gram key back into its q bytes (for debugging/tests).
std::string GramKeyToString(GramKey key, int q);

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_QGRAM_H_
