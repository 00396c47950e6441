#include "text/gram_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "text/gram_key_table.h"

namespace aqp {
namespace text {
namespace {

constexpr GramKey kAllOnes = ~GramKey{0};

/// Checks `order` against a reference frequency map: every recorded
/// key, the distinct count, and a spread of keys the map never saw.
void ExpectMatchesReference(const GramOrder& order,
                           const std::map<GramKey, uint64_t>& reference) {
  EXPECT_EQ(order.distinct(), reference.size());
  for (const auto& [key, frequency] : reference) {
    EXPECT_EQ(order.FrequencyOf(key), frequency) << key;
  }
  for (GramKey probe : {GramKey{0}, GramKey{1}, GramKey{0x414243}, kAllOnes,
                        kAllOnes - 1, GramKey{1} << 63}) {
    if (reference.count(probe) == 0) {
      EXPECT_EQ(order.FrequencyOf(probe), 0u) << probe;
    }
  }
}

TEST(FlatGramOrderTest, UnseenKeysHaveFrequencyZero) {
  GramOrder order;
  EXPECT_EQ(order.FrequencyOf(0), 0u);
  EXPECT_EQ(order.FrequencyOf(kAllOnes), 0u);
  order.AddFrequency(42, 2);
  std::map<GramKey, uint64_t> reference{{42, 2}};
  ExpectMatchesReference(order, reference);
  // A zero count records nothing: distinct() counts nonzero
  // frequencies only.
  order.AddFrequency(7, 0);
  ExpectMatchesReference(order, reference);
}

TEST(FlatGramOrderTest, KeyZeroIsAnOrdinaryKey) {
  GramOrder order;
  order.AddFrequency(0, 3);
  EXPECT_EQ(order.FrequencyOf(0), 3u);
  EXPECT_EQ(order.distinct(), 1u);
  order.AddFrequency(0, 1);
  EXPECT_EQ(order.FrequencyOf(0), 4u);
  EXPECT_EQ(order.distinct(), 1u);
  // Rarest first still holds around key 0.
  order.AddFrequency(9, 1);
  EXPECT_TRUE(order.Less(9, 0));
  EXPECT_TRUE(order.Less(5, 9));
}

TEST(FlatGramOrderTest, AllOnesKeysAtQ8) {
  QGramOptions q8;
  q8.q = 8;
  q8.pad = false;
  GramOrder order;
  // Ten 0xff bytes give three windows, all the same all-ones gram.
  order.AddSample(std::string(10, '\xff'), q8);
  order.AddSample(std::string(8, '\xff'), q8);
  EXPECT_EQ(order.FrequencyOf(kAllOnes), 2u);
  EXPECT_EQ(order.distinct(), 1u);
  order.AddSample(std::string(7, '\xff') + '\xfe', q8);
  EXPECT_EQ(order.FrequencyOf(kAllOnes - 1), 1u);
  EXPECT_EQ(order.FrequencyOf(kAllOnes), 2u);
  EXPECT_EQ(order.distinct(), 2u);
}

TEST(FlatGramOrderTest, GrowsAcrossRehashes) {
  // Far past the initial table: several doublings, with repeated keys
  // accumulating and keys that collide in the low bits.
  std::mt19937_64 rng(20090326);
  GramOrder order;
  std::map<GramKey, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    GramKey key = rng();
    if (i % 3 == 0) key &= 0xfff;  // dense small keys, repeated
    if (i % 7 == 0) key <<= 40;    // equal low bits
    const uint64_t count = 1 + rng() % 4;
    order.AddFrequency(key, count);
    reference[key] += count;
    if (i == 100 || i == 1000 || i == 5000) {
      ExpectMatchesReference(order, reference);
    }
  }
  ExpectMatchesReference(order, reference);
}

TEST(FlatGramOrderTest, EqualityIgnoresInsertionOrder) {
  std::vector<std::pair<GramKey, uint64_t>> entries;
  for (GramKey key = 0; key < 300; ++key) {
    entries.emplace_back(key * 0x10001 + (key % 5 == 0 ? kAllOnes - 500 : 0),
                         1 + key % 9);
  }
  GramOrder forward;
  for (const auto& [key, count] : entries) forward.AddFrequency(key, count);
  std::mt19937 rng(7);
  std::shuffle(entries.begin(), entries.end(), rng);
  GramOrder permuted;
  for (const auto& [key, count] : entries) {
    // Split each count across two insertions, too.
    permuted.AddFrequency(key, 1);
    permuted.AddFrequency(key, count - 1);
  }
  EXPECT_TRUE(forward == permuted);
  EXPECT_TRUE(permuted == forward);

  GramOrder shifted = permuted;
  shifted.AddFrequency(entries.front().first, 1);
  EXPECT_FALSE(forward == shifted);
  GramOrder extra = permuted;
  extra.AddFrequency(123456789, 1);
  EXPECT_FALSE(forward == extra);
  EXPECT_FALSE(extra == forward);
  EXPECT_TRUE(GramOrder() == GramOrder());
  EXPECT_FALSE(GramOrder() == forward);
}

/// The ordered prefix by definition: every gram ranked by (frequency,
/// key), the first `length` kept, as positions into grams().
std::vector<uint32_t> FullSortPrefix(const GramSet& set,
                                     const GramOrder* order, size_t length) {
  std::vector<std::pair<std::pair<uint64_t, GramKey>, uint32_t>> ranked;
  for (size_t i = 0; i < set.size(); ++i) {
    const GramKey key = set.grams()[i];
    ranked.push_back({{order != nullptr ? order->FrequencyOf(key) : 0, key},
                      static_cast<uint32_t>(i)});
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint32_t> prefix;
  for (size_t i = 0; i < length; ++i) prefix.push_back(ranked[i].second);
  return prefix;
}

TEST(OrderedPrefixTest, MatchesFullSortForRandomSetsAndOrders) {
  // Random strings over a small alphabet holding NUL (gram key 0 at
  // q = 1 and as "\0\0\0" at q = 3), random partial orders (grams left
  // unsampled rank by key behind frequency 0, and few distinct
  // frequencies make ties common), every measure, prefix cuts from one
  // gram to all g, and the non-prefix rule.
  std::mt19937 rng(11);
  const std::string alphabet("\0\1ABCDE xyz", 11);
  const SimilarityMeasure measures[] = {
      SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
      SimilarityMeasure::kCosine, SimilarityMeasure::kOverlap};
  size_t saw_key_zero = 0, saw_single = 0, saw_whole_prefix = 0,
         saw_short_prefix = 0;
  std::vector<uint64_t> scratch;
  for (int trial = 0; trial < 400; ++trial) {
    QGramOptions options;
    options.q = 1 + trial % 4;
    options.pad = trial % 3 != 0;
    std::string s;
    const size_t length = rng() % 24;
    for (size_t i = 0; i < length; ++i) s += alphabet[rng() % alphabet.size()];
    const GramSet set = GramSet::Of(s, options);
    auto order = std::make_shared<GramOrder>();
    for (GramKey key : set.grams()) {
      if (rng() % 3 != 0) order->AddFrequency(key, 1 + rng() % 3);
    }
    if (set.Contains(0)) ++saw_key_zero;
    if (set.size() == 1) ++saw_single;
    for (const SimilarityMeasure measure : measures) {
      for (const double threshold : {0.0, 0.5, 0.85, 1.0}) {
        for (const bool prefix : {true, false}) {
          for (const bool sampled : {true, false}) {
            const PrefixRule rule{sampled ? order : nullptr, measure,
                                  threshold, prefix};
            const size_t kept = rule.LengthFor(set.size());
            ASSERT_LE(kept, set.size());
            if (prefix && set.size() > 1) {
              ++(kept == set.size() ? saw_whole_prefix : saw_short_prefix);
            }
            // Appends after whatever the output already holds.
            std::vector<uint32_t> got = {99};
            OrderedPrefixInto(set, rule, &scratch, &got);
            std::vector<uint32_t> want = {99};
            const std::vector<uint32_t> reference =
                FullSortPrefix(set, rule.order.get(), kept);
            want.insert(want.end(), reference.begin(), reference.end());
            ASSERT_EQ(got, want) << "trial " << trial << " q " << options.q;
          }
        }
      }
    }
  }
  EXPECT_GT(saw_key_zero, 0u);
  EXPECT_GT(saw_single, 0u);
  EXPECT_GT(saw_whole_prefix, 0u);
  EXPECT_GT(saw_short_prefix, 0u);
}

TEST(OrderedPrefixTest, PackedKeysRankLikeFrequencyPositionPairs) {
  // Each gram is ranked by one `frequency << 32 | position` key. That
  // must order exactly like (frequency, position) pairs: frequencies
  // at both ends of the 32-bit field, ties among them, and unsampled
  // grams (frequency 0), under every prefix cut.
  const GramSet set = GramSet::Of("ABCDEFGHIJKLMNOPQRSTUVWXYZ", QGramOptions{});
  const uint64_t frequencies[] = {0, (uint64_t{1} << 32) - 1, 1,
                                  uint64_t{1} << 31, 1, 0};
  auto order = std::make_shared<GramOrder>();
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  for (size_t i = 0; i < set.size(); ++i) {
    const uint64_t frequency = frequencies[(i * 5) % 6];
    order->AddFrequency(set.grams()[i], frequency);
    pairs.emplace_back(frequency, static_cast<uint32_t>(i));
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<uint64_t> scratch;
  for (const double threshold : {0.3, 0.6, 0.85, 1.0}) {
    for (const bool prefix : {true, false}) {
      const PrefixRule rule{order, SimilarityMeasure::kJaccard, threshold,
                            prefix};
      const size_t kept = rule.LengthFor(set.size());
      std::vector<uint32_t> got;
      OrderedPrefixInto(set, rule, &scratch, &got);
      std::vector<uint32_t> want;
      for (size_t i = 0; i < kept; ++i) want.push_back(pairs[i].second);
      EXPECT_EQ(got, want) << threshold << (prefix ? " prefix" : " all");
    }
  }
}

TEST(GramKeyTableTest, PrefetchOnAnEmptyTableIsANoOp) {
  // An empty table has no slot array to hash onto: prefetching any key
  // changes nothing and touches no memory.
  GramKeyTable<uint64_t> table;
  for (GramKey key : {GramKey{0}, GramKey{1}, kAllOnes}) table.Prefetch(key);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.SlotBytes(), 0u);
  EXPECT_EQ(table.Find(0), nullptr);
  table.Insert(7) = 3;
  for (GramKey key : {GramKey{0}, GramKey{7}, kAllOnes}) table.Prefetch(key);
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Find(7), nullptr);
  EXPECT_EQ(*table.Find(7), 3u);
}

TEST(OrderedPrefixTest, RuleEqualityIsByOrderObjectAndCut) {
  auto order = std::make_shared<GramOrder>();
  const PrefixRule rule{order, SimilarityMeasure::kJaccard, 0.85, true};
  EXPECT_TRUE(rule == (PrefixRule{order, SimilarityMeasure::kJaccard, 0.85,
                                  true}));
  // An equal but distinct order object is another rule: the lane and
  // the index must share the one frozen order.
  EXPECT_FALSE(rule == (PrefixRule{std::make_shared<GramOrder>(),
                                   SimilarityMeasure::kJaccard, 0.85, true}));
  EXPECT_FALSE(rule ==
               (PrefixRule{order, SimilarityMeasure::kDice, 0.85, true}));
  EXPECT_FALSE(rule ==
               (PrefixRule{order, SimilarityMeasure::kJaccard, 0.8, true}));
  EXPECT_FALSE(rule ==
               (PrefixRule{order, SimilarityMeasure::kJaccard, 0.85, false}));
  EXPECT_EQ((PrefixRule{order, SimilarityMeasure::kJaccard, 0.85, false})
                .LengthFor(17),
            17u);
  EXPECT_EQ(rule.LengthFor(0), 0u);
}

}  // namespace
}  // namespace text
}  // namespace aqp
