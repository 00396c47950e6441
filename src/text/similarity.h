#ifndef AQP_TEXT_SIMILARITY_H_
#define AQP_TEXT_SIMILARITY_H_

#include <cstddef>
#include <string_view>

#include "text/qgram.h"

namespace aqp {
namespace text {

/// \name Set-based similarity coefficients over q-gram sets.
///
/// All return values lie in [0, 1]. The convention for degenerate
/// inputs: two empty sets have similarity 1 (identical strings too
/// short to produce grams), one empty set against a non-empty one has
/// similarity 0.
/// @{

/// Jaccard coefficient |a ∩ b| / |a ∪ b| — the paper's sim function.
double Jaccard(const GramSet& a, const GramSet& b);

/// Jaccard computed from precomputed sizes and overlap; used by the
/// SSHJoin verifier, which already knows the overlap count.
double JaccardFromOverlap(size_t size_a, size_t size_b, size_t overlap);

/// Dice coefficient 2|a ∩ b| / (|a| + |b|).
double Dice(const GramSet& a, const GramSet& b);

/// Cosine coefficient |a ∩ b| / sqrt(|a| · |b|).
double Cosine(const GramSet& a, const GramSet& b);

/// Overlap coefficient |a ∩ b| / min(|a|, |b|).
double OverlapCoefficient(const GramSet& a, const GramSet& b);
/// @}

/// \brief Which set-based coefficient a similarity predicate uses.
enum class SimilarityMeasure { kJaccard, kDice, kCosine, kOverlap };

/// Evaluates the chosen coefficient.
double SetSimilarity(SimilarityMeasure measure, const GramSet& a,
                     const GramSet& b);

/// Evaluates the chosen coefficient from set sizes and overlap only —
/// all four coefficients are functions of (|a|, |b|, |a ∩ b|). This is
/// what the SSHJoin verifier uses: the counter built during probing
/// *is* the overlap, so no gram sets need to be re-intersected.
double SetSimilarityFromOverlap(SimilarityMeasure measure, size_t size_a,
                                size_t size_b, size_t overlap);

/// Canonical name ("jaccard", ...).
const char* SimilarityMeasureName(SimilarityMeasure measure);

/// \brief Minimum q-gram overlap a candidate must share with a probe
/// whose gram set has `probe_size` elements for the coefficient to
/// possibly reach `threshold`.
///
/// For Jaccard: |∩| >= ceil(threshold * probe_size), since
/// |∪| >= probe_size. This is the sound count bound `k` from §2.2 used
/// by the SSHJoin insert-phase optimization. Always returns >= 1.
size_t MinOverlapForThreshold(SimilarityMeasure measure, size_t probe_size,
                              double threshold);

/// \brief Number of prefix grams g - k + 1 of a gram set with
/// `set_size` grams, where k = MinOverlapForThreshold(measure,
/// set_size, threshold).
///
/// Any pair reaching the threshold overlaps in at least max of the two
/// sides' k values, so the two prefixes must intersect (the standard
/// prefix-overlap argument) — scanning or posting only prefix grams
/// loses no match. Returns 0 for an empty set.
size_t PrefixLengthFor(SimilarityMeasure measure, size_t set_size,
                       double threshold);

/// \name Edit-based similarity (used by the data generator & tests).
/// @{

/// Levenshtein distance (unit costs), O(|a|·|b|) time, O(min) space.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Levenshtein with early exit: returns min(distance, bound + 1) using
/// a banded computation that is O(bound · max(|a|,|b|)).
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t bound);

/// Normalized edit similarity 1 - d(a,b)/max(|a|,|b|); 1 for two empty
/// strings.
double EditSimilarity(std::string_view a, std::string_view b);
/// @}

}  // namespace text
}  // namespace aqp

#endif  // AQP_TEXT_SIMILARITY_H_
