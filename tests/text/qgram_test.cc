#include "text/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace aqp {
namespace text {
namespace {

QGramOptions Q3() {
  QGramOptions o;
  o.q = 3;
  return o;
}

TEST(QGramOptionsTest, ValidatesQRange) {
  QGramOptions o;
  for (int q = 1; q <= 8; ++q) {
    o.q = q;
    EXPECT_TRUE(o.Validate().ok()) << q;
  }
  o.q = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o.q = 9;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(QGramOptionsTest, RejectsIdenticalPads) {
  QGramOptions o;
  o.pad_left = '#';
  o.pad_right = '#';
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(QGramTest, PaddedSequenceLengthMatchesPaperFormula) {
  // The paper counts |jA| + q - 1 grams for a padded attribute.
  const QGramOptions o = Q3();
  const std::vector<std::string> inputs = {
      "A", "AB", "ABCDE", "TAA BZ SANTA CRISTINA VALGARDENA"};
  for (const std::string& s : inputs) {
    const auto seq = ExtractGramSequence(s, o);
    EXPECT_EQ(seq.size(), s.size() + o.q - 1) << s;
    EXPECT_EQ(GramSequenceLength(s.size(), o), seq.size());
  }
}

TEST(QGramTest, UnpaddedSequenceLength) {
  QGramOptions o = Q3();
  o.pad = false;
  EXPECT_EQ(ExtractGramSequence("ABCDE", o).size(), 3u);
  EXPECT_EQ(ExtractGramSequence("AB", o).size(), 0u);
  EXPECT_EQ(ExtractGramSequence("", o).size(), 0u);
  EXPECT_EQ(GramSequenceLength(5, o), 3u);
  EXPECT_EQ(GramSequenceLength(2, o), 0u);
}

TEST(QGramTest, PaddedGramsOfShortString) {
  const QGramOptions o = Q3();
  const auto seq = ExtractGramSequence("AB", o);
  // \1\1A, \1AB, AB\2, B\2\2
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(GramKeyToString(seq[0], 3), "\x01\x01"
                                        "A");
  EXPECT_EQ(GramKeyToString(seq[1], 3), "\x01"
                                        "AB");
  EXPECT_EQ(GramKeyToString(seq[2], 3), "AB\x02");
  EXPECT_EQ(GramKeyToString(seq[3], 3), "B\x02\x02");
}

TEST(QGramTest, KeysRoundTripThroughStrings) {
  const QGramOptions o = Q3();
  const std::string s = "SANTA";
  for (GramKey key : ExtractGramSequence(s, o)) {
    const std::string gram = GramKeyToString(key, o.q);
    EXPECT_EQ(gram.size(), 3u);
  }
}

TEST(QGramTest, Q1IsCharacterSet) {
  QGramOptions o;
  o.q = 1;
  o.pad = true;  // q=1 needs no padding chars (q-1 == 0)
  const GramSet set = GramSet::Of("ABCA", o);
  EXPECT_EQ(set.size(), 3u);  // A, B, C
}

TEST(GramSetTest, DeduplicatesRepeatedGrams) {
  const QGramOptions o = Q3();
  // "AAAA" padded: \1\1A \1AA AAA AAA(dup) AA\2 A\2\2 -> "AAA" repeats.
  const auto seq = ExtractGramSequence("AAAA", o);
  const GramSet set = GramSet::Of("AAAA", o);
  EXPECT_LT(set.size(), seq.size());
  std::set<GramKey> unique(seq.begin(), seq.end());
  EXPECT_EQ(set.size(), unique.size());
}

TEST(GramSetTest, ContainsFindsMembers) {
  const QGramOptions o = Q3();
  const GramSet set = GramSet::Of("SANTA", o);
  const auto seq = ExtractGramSequence("SANTA", o);
  for (GramKey key : seq) {
    EXPECT_TRUE(set.Contains(key));
  }
  const GramSet other = GramSet::Of("XYZQW", o);
  for (GramKey key : other.grams()) {
    EXPECT_FALSE(set.Contains(key));
  }
}

TEST(GramSetTest, OverlapOfIdenticalStringsIsFullSize) {
  const QGramOptions o = Q3();
  const GramSet a = GramSet::Of("SANTA CRISTINA", o);
  EXPECT_EQ(a.OverlapWith(a), a.size());
}

TEST(GramSetTest, OverlapOfDisjointStringsIsZero) {
  QGramOptions o = Q3();
  o.pad = false;  // padding would create shared boundary grams
  const GramSet a = GramSet::Of("AAAA", o);
  const GramSet b = GramSet::Of("BBBB", o);
  EXPECT_EQ(a.OverlapWith(b), 0u);
}

TEST(GramSetTest, OverlapIsSymmetric) {
  const QGramOptions o = Q3();
  const GramSet a = GramSet::Of("SANTA CRISTINA", o);
  const GramSet b = GramSet::Of("SANTA CRISTINx", o);
  EXPECT_EQ(a.OverlapWith(b), b.OverlapWith(a));
  EXPECT_GT(a.OverlapWith(b), 0u);
  EXPECT_LT(a.OverlapWith(b), a.size());
}

TEST(GramSetTest, BoundedOverlapIsExactWhenTheBoundIsReached) {
  // Random gram sets over a four-letter alphabet at q = 2, so overlaps
  // run from none to full; checked against a brute-force membership
  // count for every bound from 0 to the smaller size + 1.
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> length(0, 20);
  std::uniform_int_distribution<int> letter(0, 3);
  const auto random_string = [&] {
    std::string s(static_cast<size_t>(length(rng)), 'A');
    for (char& c : s) c = static_cast<char>('A' + letter(rng));
    return s;
  };
  QGramOptions q2;
  q2.q = 2;
  for (int trial = 0; trial < 400; ++trial) {
    const GramSet a = GramSet::Of(random_string(), q2);
    const GramSet b = GramSet::Of(random_string(), q2);
    size_t brute = 0;
    for (GramKey key : a.grams()) {
      brute += static_cast<size_t>(
          std::count(b.grams().begin(), b.grams().end(), key));
    }
    for (size_t bound = 0; bound <= std::min(a.size(), b.size()) + 1;
         ++bound) {
      const size_t got = a.OverlapAtLeast(b, bound);
      if (brute >= bound) {
        EXPECT_EQ(got, brute) << "bound " << bound;
      } else {
        EXPECT_LT(got, bound) << "brute " << brute;
      }
    }
  }
}

TEST(GramSetTest, EmptyStringPaddedStillHasGrams) {
  // Padded empty string: q-1 left pads + q-1 right pads = q-1 windows.
  const QGramOptions o = Q3();
  const GramSet set = GramSet::Of("", o);
  EXPECT_EQ(set.size(), 2u);
}

TEST(GramSetTest, SingleCharacterEditChangesAtMostQGrams) {
  const QGramOptions o = Q3();
  const std::string s = "TAA BZ SANTA CRISTINA VALGARDENA";
  std::string edited = s;
  edited[20] = 'x';
  const GramSet a = GramSet::Of(s, o);
  const GramSet b = GramSet::Of(edited, o);
  const size_t overlap = a.OverlapWith(b);
  // A substitution affects at most q windows on each side.
  EXPECT_GE(overlap + 3, a.size());
  EXPECT_GE(overlap + 3, b.size());
}

}  // namespace
}  // namespace text
}  // namespace aqp
