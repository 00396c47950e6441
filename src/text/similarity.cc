#include "text/similarity.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

namespace aqp {
namespace text {

double JaccardFromOverlap(size_t size_a, size_t size_b, size_t overlap) {
  assert(overlap <= size_a && overlap <= size_b);
  const size_t union_size = size_a + size_b - overlap;
  if (union_size == 0) return 1.0;  // both empty
  return static_cast<double>(overlap) / static_cast<double>(union_size);
}

double Jaccard(const GramSet& a, const GramSet& b) {
  return JaccardFromOverlap(a.size(), b.size(), a.OverlapWith(b));
}

double Dice(const GramSet& a, const GramSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t overlap = a.OverlapWith(b);
  return 2.0 * static_cast<double>(overlap) /
         static_cast<double>(a.size() + b.size());
}

double Cosine(const GramSet& a, const GramSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t overlap = a.OverlapWith(b);
  return static_cast<double>(overlap) /
         std::sqrt(static_cast<double>(a.size()) *
                   static_cast<double>(b.size()));
}

double OverlapCoefficient(const GramSet& a, const GramSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t overlap = a.OverlapWith(b);
  return static_cast<double>(overlap) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double SetSimilarity(SimilarityMeasure measure, const GramSet& a,
                     const GramSet& b) {
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      return Jaccard(a, b);
    case SimilarityMeasure::kDice:
      return Dice(a, b);
    case SimilarityMeasure::kCosine:
      return Cosine(a, b);
    case SimilarityMeasure::kOverlap:
      return OverlapCoefficient(a, b);
  }
  return 0.0;
}

double SetSimilarityFromOverlap(SimilarityMeasure measure, size_t size_a,
                                size_t size_b, size_t overlap) {
  assert(overlap <= size_a && overlap <= size_b);
  if (size_a == 0 && size_b == 0) return 1.0;
  if (size_a == 0 || size_b == 0) return 0.0;
  const double o = static_cast<double>(overlap);
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      return o / static_cast<double>(size_a + size_b - overlap);
    case SimilarityMeasure::kDice:
      return 2.0 * o / static_cast<double>(size_a + size_b);
    case SimilarityMeasure::kCosine:
      return o / std::sqrt(static_cast<double>(size_a) *
                           static_cast<double>(size_b));
    case SimilarityMeasure::kOverlap:
      return o / static_cast<double>(std::min(size_a, size_b));
  }
  return 0.0;
}

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      return "jaccard";
    case SimilarityMeasure::kDice:
      return "dice";
    case SimilarityMeasure::kCosine:
      return "cosine";
    case SimilarityMeasure::kOverlap:
      return "overlap";
  }
  return "?";
}

size_t MinOverlapForThreshold(SimilarityMeasure measure, size_t probe_size,
                              double threshold) {
  if (probe_size == 0) return 1;
  threshold = std::clamp(threshold, 0.0, 1.0);
  const double g = static_cast<double>(probe_size);
  double bound = 1.0;
  switch (measure) {
    case SimilarityMeasure::kJaccard:
      // J = o / (|a| + |b| - o) <= o / g  (since |union| >= g), so
      // J >= t implies o >= t * g.
      bound = threshold * g;
      break;
    case SimilarityMeasure::kDice:
      // D = 2o / (|a| + |b|) <= 2o / (g + o) <= 2o / g ... the tightest
      // sound bound from the probe side alone: |a|+|b| >= g + o >= g + 1,
      // but o <= min(...) — use D <= 2o/(g + o); D >= t implies
      // o >= t*g / (2 - t).
      bound = threshold * g / (2.0 - threshold);
      break;
    case SimilarityMeasure::kCosine:
      // C = o / sqrt(|a||b|) <= o / sqrt(g * o) = sqrt(o / g), so
      // C >= t implies o >= t^2 * g.
      bound = threshold * threshold * g;
      break;
    case SimilarityMeasure::kOverlap:
      // O = o / min(|a|,|b|); min can be as small as o itself, so the
      // only sound probe-side bound is o >= 1.
      bound = 1.0;
      break;
  }
  const double k = std::ceil(bound - 1e-9);
  return std::max<size_t>(1, static_cast<size_t>(k));
}

size_t PrefixLengthFor(SimilarityMeasure measure, size_t set_size,
                       double threshold) {
  if (set_size == 0) return 0;
  const size_t k = MinOverlapForThreshold(measure, set_size, threshold);
  // k is in [1, set_size] for any threshold <= 1, so the result is in
  // [1, set_size]; clamp anyway so a pathological threshold cannot
  // underflow.
  return k > set_size ? 1 : set_size - k + 1;
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> curr(a.size() + 1);
  std::iota(prev.begin(), prev.end(), size_t{0});
  for (size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[i] = std::min({prev[i] + 1,              // deletion
                          curr[i - 1] + 1,          // insertion
                          prev[i - 1] + sub_cost});  // substitution
    }
    std::swap(prev, curr);
  }
  return prev[a.size()];
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > bound) return bound + 1;
  const size_t kInf = b.size() + a.size() + 1;
  std::vector<size_t> prev(a.size() + 1, kInf);
  std::vector<size_t> curr(a.size() + 1, kInf);
  std::iota(prev.begin(), prev.end(), size_t{0});
  for (size_t j = 1; j <= b.size(); ++j) {
    // Band of cells that can still be <= bound.
    const size_t lo = (j > bound) ? j - bound : 0;
    const size_t hi = std::min(a.size(), j + bound);
    std::fill(curr.begin(), curr.end(), kInf);
    if (lo == 0) curr[0] = j;
    size_t row_min = kInf;
    for (size_t i = std::max<size_t>(1, lo); i <= hi; ++i) {
      const size_t sub_cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t best = prev[i - 1] + sub_cost;
      if (prev[i] + 1 < best) best = prev[i] + 1;
      if (curr[i - 1] + 1 < best) best = curr[i - 1] + 1;
      curr[i] = best;
      row_min = std::min(row_min, best);
    }
    if (lo == 0) row_min = std::min(row_min, curr[0]);
    if (row_min > bound) return bound + 1;  // distance cannot recover
    std::swap(prev, curr);
  }
  return std::min(prev[a.size()], bound + 1);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 -
         static_cast<double>(Levenshtein(a, b)) / static_cast<double>(longest);
}

}  // namespace text
}  // namespace aqp
