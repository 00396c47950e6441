#include "text/gram_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace text
}  // namespace aqp
