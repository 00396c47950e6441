#include "bench_math.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double x : samples) sum += x;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

size_t SamplesBeyond(size_t n, double percentile) {
  const auto rank = static_cast<size_t>(
      std::ceil(static_cast<double>(n) * percentile / 100.0 - 1e-9));
  return rank >= n ? 0 : n - rank;
}

std::optional<Tail> HighestSupportedPercentile(
    const std::vector<double>& samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(samples.size(), p) >= kMinSamplesBeyond) {
      return Tail{p, Quantile(samples, p / 100.0)};
    }
  }
  return std::nullopt;
}

void LinkQuality::Add(const LinkQuality& other) {
  emitted += other.emitted;
  correct += other.correct;
  linked_children += other.linked_children;
  children += other.children;
  out_of_range += other.out_of_range;
}

double LinkQuality::recall() const {
  return children == 0 ? 1.0
                       : static_cast<double>(linked_children) /
                             static_cast<double>(children);
}

double LinkQuality::precision() const {
  return emitted == 0 ? 1.0
                      : static_cast<double>(correct) /
                            static_cast<double>(emitted);
}

LinkQuality ScoreLinkage(const std::vector<LinkPair>& pairs, size_t prefix,
                         const std::vector<size_t>& true_parent) {
  LinkQuality q;
  q.children = true_parent.size();
  std::vector<uint8_t> linked(true_parent.size(), 0);
  const size_t n = std::min(prefix, pairs.size());
  for (size_t i = 0; i < n; ++i) {
    const LinkPair& p = pairs[i];
    ++q.emitted;
    if (p.child < 0 || static_cast<size_t>(p.child) >= true_parent.size() ||
        p.parent < 0) {
      ++q.out_of_range;
      continue;
    }
    const auto child = static_cast<size_t>(p.child);
    if (true_parent[child] != static_cast<size_t>(p.parent)) continue;
    ++q.correct;
    if (linked[child] == 0) {
      linked[child] = 1;
      ++q.linked_children;
    }
  }
  return q;
}

}  // namespace perfbench
