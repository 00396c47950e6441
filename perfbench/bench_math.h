#ifndef AQP_PERFBENCH_BENCH_MATH_H_
#define AQP_PERFBENCH_BENCH_MATH_H_

// The benchmark's own arithmetic: order statistics over timing samples
// and linkage quality against datagen's ground truth. Kept free of
// engine types so the self-test can check it on hand-built inputs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave strictly above it before the
/// benchmark reports it (fewer make the tail one or two outliers).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Linear-interpolated quantile, q in [0, 1] (same rule as numpy's
/// default and Python's statistics.quantiles "inclusive" method).
/// 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// Quantile(samples, 0.5).
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// Samples ranked strictly above the `percentile`-th percentile of `n`
/// samples: n - ceil(n * percentile / 100).
size_t SamplesBeyond(size_t n, double percentile);

/// A reported tail: which percentile, and its value.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

/// The percentile rule: of the conventional percentiles {99.9, 99, 95,
/// 90, 50}, the highest that leaves at least kMinSamplesBeyond samples
/// above it; nullopt when even the median does not.
std::optional<Tail> HighestSupportedPercentile(
    const std::vector<double>& samples);

/// One output pair of a linkage answer: child row id (accident_id) and
/// parent row id (municipality_id).
struct LinkPair {
  int64_t child = 0;
  int64_t parent = 0;
};

/// Quality of a linkage answer against ground truth.
struct LinkQuality {
  uint64_t emitted = 0;         ///< pairs in the answer
  uint64_t correct = 0;         ///< pairs naming the child's true parent
  uint64_t linked_children = 0; ///< distinct children linked correctly
  uint64_t children = 0;        ///< children that have a true parent
  uint64_t out_of_range = 0;    ///< pairs whose ids are not in the input

  /// Pools another answer's counts into this one.
  void Add(const LinkQuality& other);

  /// linked_children / children (1 when there are no children).
  double recall() const;
  /// correct / emitted (1 for an empty answer: it claims nothing false).
  double precision() const;
};

/// Scores `pairs` against `true_parent` (child row -> parent row; every
/// child has one). Only the first `prefix` pairs count (the answer a
/// deadline returned); pass pairs.size() for the whole answer.
LinkQuality ScoreLinkage(const std::vector<LinkPair>& pairs, size_t prefix,
                         const std::vector<size_t>& true_parent);

}  // namespace perfbench

#endif  // AQP_PERFBENCH_BENCH_MATH_H_
