// Unit tests for the approximate-match filter predicates. The filters
// must be *exactly* as permissive as the verifier: each bound is
// probed at its boundary value (the issue's |g_s - g_p| = g - k edge)
// and cross-checked against the similarity function the verifier
// evaluates.

#include "join/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "join/join_types.h"
#include "text/gram_order.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace join {
namespace {

using text::SimilarityMeasure;

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
    SimilarityMeasure::kCosine, SimilarityMeasure::kOverlap};

TEST(LengthFilterTest, BandEdgesAtExactBoundary) {
  // Jaccard, g = 40, θ = 0.85: k = ceil(0.85·40) = 34. The lower band
  // edge sits at |g_s - g_p| = g - k exactly: g_s = k passes (best
  // case 34/40 = 0.85), g_s = k - 1 fails.
  const size_t g = 40;
  const double theta = 0.85;
  const size_t k =
      text::MinOverlapForThreshold(SimilarityMeasure::kJaccard, g, theta);
  ASSERT_EQ(k, 34u);
  EXPECT_TRUE(LengthCompatible(SimilarityMeasure::kJaccard, g, k, theta));
  EXPECT_FALSE(
      LengthCompatible(SimilarityMeasure::kJaccard, g, k - 1, theta));
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kJaccard, g, theta);
  EXPECT_EQ(band.lo, k);
  EXPECT_EQ(g - band.lo, g - k);  // the |g_s - g_p| = g - k edge
  // Upper edge: 40/47 ≈ 0.851 passes, 40/48 ≈ 0.833 fails. Note 47 >
  // g + (g - k): the verifier-derived band is *wider* than the naive
  // symmetric |g_s - g_p| <= g - k band — binding to the similarity
  // function is what keeps the filter exact instead of lossy.
  EXPECT_EQ(band.hi, 47u);
  EXPECT_TRUE(band.Contains(47));
  EXPECT_FALSE(band.Contains(48));
}

TEST(LengthFilterTest, BandAgreesWithVerifierForAllMeasures) {
  for (SimilarityMeasure measure : kAllMeasures) {
    for (size_t g : {1u, 2u, 5u, 17u, 40u, 120u}) {
      for (double theta : {0.5, 0.85, 0.95, 1.0}) {
        const GramCountBand band = LengthBandFor(measure, g, theta);
        // Every size up to well past the band must agree with the
        // verifier's best-case decision.
        const size_t scan_to =
            band.hi == std::numeric_limits<size_t>::max()
                ? 4 * g + 8
                : band.hi + 8;
        for (size_t s = 1; s <= scan_to; ++s) {
          const bool feasible = LengthCompatible(measure, g, s, theta);
          EXPECT_EQ(band.Contains(s), feasible)
              << "measure=" << text::SimilarityMeasureName(measure)
              << " g=" << g << " theta=" << theta << " s=" << s;
        }
      }
    }
  }
}

TEST(LengthFilterTest, OverlapCoefficientBandIsUnboundedAbove) {
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kOverlap, 10, 0.85);
  EXPECT_EQ(band.lo, 1u);
  EXPECT_EQ(band.hi, std::numeric_limits<size_t>::max());
}

TEST(LengthFilterTest, EmptyProbeBandContainsNothing) {
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kJaccard, 0, 0.85);
  EXPECT_FALSE(band.Contains(0));
  EXPECT_FALSE(band.Contains(1));
}

TEST(PrefixLengthTest, MatchesInsertPhaseRule) {
  for (SimilarityMeasure measure : kAllMeasures) {
    for (size_t g : {1u, 2u, 10u, 40u}) {
      for (double theta : {0.5, 0.85, 1.0}) {
        const size_t k = text::MinOverlapForThreshold(measure, g, theta);
        ASSERT_LE(k, g);
        EXPECT_EQ(text::PrefixLengthFor(measure, g, theta), g - k + 1);
      }
    }
  }
  EXPECT_EQ(text::PrefixLengthFor(SimilarityMeasure::kJaccard, 0, 0.85), 0u);
}

TEST(MinPairOverlapTest, SmallestPassingOverlap) {
  for (SimilarityMeasure measure : kAllMeasures) {
    for (size_t a : {3u, 10u, 40u}) {
      for (size_t b : {3u, 12u, 40u}) {
        for (double theta : {0.5, 0.85, 1.0}) {
          const auto required = MinPairOverlap(measure, a, b, theta);
          const size_t max_overlap = std::min(a, b);
          if (!required.has_value()) {
            EXPECT_LT(text::SetSimilarityFromOverlap(measure, a, b,
                                                     max_overlap),
                      theta);
            continue;
          }
          EXPECT_GE(text::SetSimilarityFromOverlap(measure, a, b, *required),
                    theta);
          if (*required > 0) {
            EXPECT_LT(text::SetSimilarityFromOverlap(measure, a, b,
                                                     *required - 1),
                      theta);
          }
        }
      }
    }
  }
}

TEST(MinPairOverlapTest, InfeasiblePairIsNullopt) {
  // Jaccard of a 10-set and a 40-set is at most 10/40 = 0.25.
  EXPECT_FALSE(
      MinPairOverlap(SimilarityMeasure::kJaccard, 10, 40, 0.85).has_value());
}

TEST(PositionalFilterTest, BoundaryExact) {
  // probe size 10 at position 2 leaves 7 more probe grams; stored size
  // 12 at position 6 leaves 5 more: overlap <= 1 + min(7, 5) = 6.
  EXPECT_TRUE(PositionalCompatible(10, 2, 12, 6, 6));
  EXPECT_FALSE(PositionalCompatible(10, 2, 12, 6, 7));
  // Last gram on both sides: only the discovered gram can be shared.
  EXPECT_TRUE(PositionalCompatible(10, 9, 12, 11, 1));
  EXPECT_FALSE(PositionalCompatible(10, 9, 12, 11, 2));
}

TEST(PositionalFilterTest, RejectionAtFirstSharedPrefixGramIsPermanent) {
  // The prefix-filtered probe drops every posting that fails the
  // positional bound without marking its tuple, which is exact only if
  // a pair failing the bound at its first shared prefix gram fails it
  // at every later shared prefix gram too. Random gram sets under
  // random sampled orders (ties and unsampled grams included), every
  // measure, several thresholds.
  std::mt19937 rng(29);
  const std::string alphabet = "ABCDEFG xyz";
  const auto random_string = [&] {
    std::string s;
    const size_t length = 3 + rng() % 22;
    for (size_t i = 0; i < length; ++i) s += alphabet[rng() % alphabet.size()];
    return s;
  };
  const text::QGramOptions options;
  size_t first_rejected = 0, later_checked = 0, first_passed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto order = std::make_shared<text::GramOrder>();
    for (int i = 0; i < 6; ++i) {
      const text::GramSet sample = text::GramSet::Of(random_string(), options);
      for (text::GramKey key : sample.grams()) {
        if (rng() % 4 != 0) order->AddFrequency(key, 1 + rng() % 3);
      }
    }
    const std::string probe_key = random_string();
    const text::GramSet probe = text::GramSet::Of(probe_key, options);
    for (int n = 0; n < 8; ++n) {
      // Stored strings share a stretch with the probe, so pairs share
      // prefix grams often.
      std::string stored_key = random_string();
      stored_key.insert(rng() % (stored_key.size() + 1),
                        probe_key.substr(rng() % probe_key.size()));
      const text::GramSet stored = text::GramSet::Of(stored_key, options);
      for (SimilarityMeasure measure : kAllMeasures) {
        for (double threshold : {0.3, 0.6, 0.85}) {
          const text::PrefixRule rule{order, measure, threshold, true};
          std::vector<uint64_t> scratch;
          std::vector<uint32_t> probe_prefix, stored_prefix;
          text::OrderedPrefixInto(probe, rule, &scratch, &probe_prefix);
          text::OrderedPrefixInto(stored, rule, &scratch, &stored_prefix);
          const std::optional<size_t> min_overlap = MinPairOverlap(
              measure, probe.size(), stored.size(), threshold);
          const size_t required = min_overlap.value_or(SIZE_MAX);
          // Shared prefix grams in the probe's scan order, with their
          // positions in both ordered prefixes.
          std::vector<std::pair<size_t, size_t>> shared;
          for (size_t i = 0; i < probe_prefix.size(); ++i) {
            const text::GramKey key = probe.grams()[probe_prefix[i]];
            for (size_t j = 0; j < stored_prefix.size(); ++j) {
              if (stored.grams()[stored_prefix[j]] == key) {
                shared.emplace_back(i, j);
              }
            }
          }
          if (shared.empty()) continue;
          const auto compatible = [&](std::pair<size_t, size_t> at) {
            return PositionalCompatible(probe.size(), at.first,
                                        stored.size(), at.second, required);
          };
          if (compatible(shared.front())) {
            ++first_passed;
            continue;
          }
          ++first_rejected;
          for (size_t s = 1; s < shared.size(); ++s) {
            ASSERT_GT(shared[s].second, shared[s - 1].second)
                << "prefixes disagree on the gram order";
            ASSERT_FALSE(compatible(shared[s]))
                << "trial " << trial << " \"" << probe_key << "\" vs \""
                << stored_key << "\" at shared gram " << s;
            ++later_checked;
          }
        }
      }
    }
  }
  EXPECT_GT(first_rejected, 0u);
  EXPECT_GT(later_checked, 0u);
  EXPECT_GT(first_passed, 0u);
}

TEST(FilterOptionsTest, LabelsAndAny) {
  ApproxFilterOptions filter;
  EXPECT_FALSE(filter.any());
  EXPECT_EQ(filter.Label(), "none");
  filter.length = true;
  EXPECT_TRUE(filter.any());
  EXPECT_EQ(filter.Label(), "length");
  filter.prefix = true;
  filter.positional = true;
  EXPECT_EQ(filter.Label(), "length+prefix+positional");
  EXPECT_TRUE(filter.Validate().ok());
}

TEST(FilterOptionsTest, JoinSpecDefaultsToTheFullStackWithoutAnOrder) {
  const JoinSpec spec;
  EXPECT_EQ(spec.filter.Label(), "length+prefix+positional");
  EXPECT_EQ(ApproxFilterOptions::Full().Label(), spec.filter.Label());
  // No order in the options: the engine derives one per run.
  EXPECT_EQ(spec.filter.gram_order, nullptr);
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(GramOrderTest, DefaultIsKeyOrder) {
  const text::GramOrder order;
  EXPECT_TRUE(order.Less(1, 2));
  EXPECT_FALSE(order.Less(2, 1));
  EXPECT_EQ(order.distinct(), 0u);
}

TEST(GramOrderTest, SampledFrequenciesRankRareFirst) {
  text::GramOrder order;
  order.AddFrequency(7, 100);
  order.AddFrequency(3, 1);
  // Key 7 is numerically larger but frequent; key 3 rare. Rarest
  // first: 3 < 7. An unseen key (frequency 0) precedes both.
  EXPECT_TRUE(order.Less(3, 7));
  EXPECT_TRUE(order.Less(99, 3));
  // Ties broken by key, keeping the order total.
  order.AddFrequency(5, 1);
  EXPECT_TRUE(order.Less(3, 5));
}

TEST(GramOrderTest, AddSampleCountsDistinctGramsPerString) {
  text::QGramOptions q3;
  text::GramOrder order;
  order.AddSample("AAAA", q3);  // "AAA" appears twice but is one gram
  const auto grams = text::GramSet::Of("AAAA", q3);
  for (text::GramKey key : grams.grams()) {
    EXPECT_EQ(order.FrequencyOf(key), 1u);
  }
  order.AddSample("AAAA", q3);
  for (text::GramKey key : grams.grams()) {
    EXPECT_EQ(order.FrequencyOf(key), 2u);
  }
}

}  // namespace
}  // namespace aqp
}  // namespace join
