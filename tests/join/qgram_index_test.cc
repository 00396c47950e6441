#include "join/qgram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join/filter.h"
#include "storage/tuple_store.h"

namespace aqp {
namespace join {
namespace {

using storage::Tuple;
using storage::TupleId;
using storage::TupleStore;
using storage::Value;

text::QGramOptions Q3() {
  text::QGramOptions o;
  o.q = 3;
  return o;
}

TEST(QGramIndexTest, PostingsContainInsertingTuples) {
  TupleStore store(0);
  store.Add(Tuple{Value("SANTA")});
  store.Add(Tuple{Value("SANTO")});
  QGramIndex index(Q3());
  EXPECT_EQ(index.CatchUpWith(store), 2u);

  // Shared gram "SAN" should list both tuples.
  const auto grams = text::ExtractGramSequence("SANTA", Q3());
  const auto* postings = index.Postings(grams[2]);  // "SAN"
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 2u);
  EXPECT_EQ(index.Frequency(grams[2]), 2u);
}

TEST(QGramIndexTest, PostingsAreDeduplicatedPerTuple) {
  TupleStore store(0);
  store.Add(Tuple{Value("AAAAAA")});  // "AAA" occurs many times
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  const auto set = text::GramSet::Of("AAAAAA", Q3());
  for (text::GramKey key : set.grams()) {
    const auto* postings = index.Postings(key);
    ASSERT_NE(postings, nullptr);
    EXPECT_EQ(postings->size(), 1u) << "gram duplicated in posting list";
  }
}

TEST(QGramIndexTest, GramSetSizesStored) {
  TupleStore store(0);
  store.Add(Tuple{Value("SANTA")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  const auto set = text::GramSet::Of("SANTA", Q3());
  EXPECT_EQ(index.GramSetSize(0), set.size());
  EXPECT_EQ(index.GramSetOf(0), set);
}

TEST(QGramIndexTest, UnknownGramHasZeroFrequency) {
  QGramIndex index(Q3());
  EXPECT_EQ(index.Frequency(0xFFFFFFFFull), 0u);
  EXPECT_EQ(index.Postings(0xFFFFFFFFull), nullptr);
}

TEST(QGramIndexTest, IncrementalCatchUpMatchesFreshBuild) {
  TupleStore store(0);
  const std::vector<std::string> values = {"SANTA CRISTINA", "MONTE BIANCO",
                                           "VILLA ROSSA", "SANTA LUCIA",
                                           "BORGO SAN LORENZO"};
  QGramIndex incremental(Q3());
  for (const std::string& v : values) {
    store.Add(Tuple{Value(v)});
    incremental.CatchUpWith(store);  // catch up one at a time
  }
  QGramIndex fresh(Q3());
  fresh.CatchUpWith(store);  // all at once

  EXPECT_EQ(incremental.watermark(), fresh.watermark());
  EXPECT_EQ(incremental.distinct_grams(), fresh.distinct_grams());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    EXPECT_EQ(incremental.GramSetOf(id), fresh.GramSetOf(id));
    for (text::GramKey key : fresh.GramSetOf(id).grams()) {
      ASSERT_NE(incremental.Postings(key), nullptr);
      EXPECT_EQ(*incremental.Postings(key), *fresh.Postings(key));
    }
  }
}

TEST(QGramIndexTest, EmptyGramTuplesTracked) {
  text::QGramOptions unpadded = Q3();
  unpadded.pad = false;
  TupleStore store(0);
  store.Add(Tuple{Value("AB")});  // shorter than q: no grams
  store.Add(Tuple{Value("ABCDEF")});
  QGramIndex index(unpadded);
  index.CatchUpWith(store);
  ASSERT_EQ(index.empty_gram_tuples().size(), 1u);
  EXPECT_EQ(index.empty_gram_tuples()[0], 0u);
}

TEST(QGramIndexTest, AveragePostingLength) {
  TupleStore store(0);
  store.Add(Tuple{Value("ABC")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  // One tuple: every posting list has length 1.
  EXPECT_DOUBLE_EQ(index.AveragePostingLength(), 1.0);
}

TEST(QGramIndexTest, SpaceGrowsWithGramCount) {
  // §2.3: q-gram index space is ~(|jA|+q-1) pointers per tuple versus
  // one for the exact table.
  TupleStore store(0);
  for (int i = 0; i < 20; ++i) {
    store.Add(Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
  }
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  EXPECT_GT(index.ApproximateMemoryUsage(),
            20u * 20u * sizeof(storage::TupleId));
}

TEST(QGramIndexTest, StoreBackedGramSetsServedFromStoreCache) {
  // A store with a matching gram cache serves the per-tuple sets; the
  // index keeps no copy, and both sides see the identical object.
  TupleStore store(0, Q3());
  store.Add(Tuple{Value("SANTA CRISTINA")});
  store.Add(Tuple{Value("MONTE BIANCO")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  for (storage::TupleId id = 0; id < 2; ++id) {
    EXPECT_EQ(&index.GramSetOf(id), &store.Grams(id)) << "tuple " << id;
    EXPECT_EQ(index.GramSetSize(id), store.Grams(id).size());
  }
}

TEST(QGramIndexTest, StoreBackedMemoryNotDoubleCounted) {
  // §2.3 space accounting with the arena-backed layout: gram sets
  // cached in the store are charged to the store, not the index, so
  // the same workload yields a smaller index + a larger store, never
  // both holding a copy.
  const auto fill = [](TupleStore* store) {
    for (int i = 0; i < 20; ++i) {
      store->Add(
          Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
    }
  };
  TupleStore cached_store(0, Q3());
  fill(&cached_store);
  QGramIndex cached_index(Q3());
  cached_index.CatchUpWith(cached_store);

  TupleStore plain_store(0);
  fill(&plain_store);
  QGramIndex local_index(Q3());
  local_index.CatchUpWith(plain_store);

  // Identical index structure either way...
  EXPECT_EQ(cached_index.distinct_grams(), local_index.distinct_grams());
  EXPECT_EQ(cached_index.watermark(), local_index.watermark());
  // ...but the gram-set bytes move from the index to the store.
  EXPECT_LT(cached_index.ApproximateMemoryUsage(),
            local_index.ApproximateMemoryUsage());
  EXPECT_GT(cached_store.ApproximateMemoryUsage(),
            plain_store.ApproximateMemoryUsage());
  // Postings alone still dominate the exact table's one-pointer-per-
  // tuple budget (§2.3's space trade-off stays visible).
  EXPECT_GT(cached_index.ApproximateMemoryUsage(),
            20u * 20u * sizeof(storage::TupleId));
}

ApproxFilterOptions AllFilters() {
  ApproxFilterOptions f;
  f.length = f.prefix = f.positional = true;
  return f;
}

TEST(QGramIndexPayloadTest, PostingsCarryCountAndPosition) {
  TupleStore store(0);
  const std::string value = "SANTA CRISTINA VALGARDENA";
  store.Add(Tuple{Value(value)});
  QGramIndex index(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  index.CatchUpWith(store);

  // Reconstruct the expected order: default gram order = ascending key.
  const auto set = text::GramSet::Of(value, Q3());
  std::vector<text::GramKey> ordered(set.grams().begin(), set.grams().end());
  std::sort(ordered.begin(), ordered.end());
  const size_t g = ordered.size();
  const size_t prefix =
      text::PrefixLengthFor(text::SimilarityMeasure::kJaccard, g, 0.85);
  ASSERT_LT(prefix, g);

  for (size_t j = 0; j < g; ++j) {
    const auto* postings = index.PayloadPostings(ordered[j]);
    if (j < prefix) {
      ASSERT_NE(postings, nullptr) << "prefix gram " << j << " not posted";
      ASSERT_EQ(postings->size(), 1u);
      EXPECT_EQ((*postings)[0].id, 0u);
      EXPECT_EQ((*postings)[0].gram_count, g);
      EXPECT_EQ((*postings)[0].position, j);
      EXPECT_EQ(index.Frequency(ordered[j]), 1u);
    } else {
      // Non-prefix grams of the only tuple must not be posted at all.
      EXPECT_EQ(postings, nullptr) << "non-prefix gram " << j << " posted";
    }
  }
}

TEST(QGramIndexPayloadTest, WithoutPrefixAllGramsPosted) {
  TupleStore store(0);
  const std::string value = "MONTE BIANCO SUPERIORE";
  store.Add(Tuple{Value(value)});
  ApproxFilterOptions length_only;
  length_only.length = true;
  QGramIndex index(Q3(), length_only, text::SimilarityMeasure::kJaccard,
                   0.85);
  index.CatchUpWith(store);
  EXPECT_TRUE(index.payload_mode());
  const auto set = text::GramSet::Of(value, Q3());
  for (text::GramKey key : set.grams()) {
    const auto* postings = index.PayloadPostings(key);
    ASSERT_NE(postings, nullptr);
    ASSERT_EQ(postings->size(), 1u);
    EXPECT_EQ((*postings)[0].gram_count, set.size());
  }
  EXPECT_EQ(index.distinct_grams(), set.size());
}

TEST(QGramIndexPayloadTest, IncrementalCatchUpMatchesFreshBuild) {
  const std::vector<std::string> values = {"SANTA CRISTINA", "MONTE BIANCO",
                                           "VILLA ROSSA", "SANTA LUCIA",
                                           "BORGO SAN LORENZO"};
  TupleStore store(0);
  QGramIndex incremental(Q3(), AllFilters(),
                         text::SimilarityMeasure::kJaccard, 0.85);
  for (const std::string& v : values) {
    store.Add(Tuple{Value(v)});
    incremental.CatchUpWith(store);
  }
  QGramIndex fresh(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  fresh.CatchUpWith(store);

  EXPECT_EQ(incremental.watermark(), fresh.watermark());
  EXPECT_EQ(incremental.distinct_grams(), fresh.distinct_grams());
  for (size_t i = 0; i < values.size(); ++i) {
    const text::GramSet set = text::GramSet::Of(values[i], Q3());
    for (text::GramKey key : set.grams()) {
      const auto* a = incremental.PayloadPostings(key);
      const auto* b = fresh.PayloadPostings(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) continue;
      ASSERT_EQ(a->size(), b->size());
      for (size_t j = 0; j < a->size(); ++j) {
        EXPECT_EQ((*a)[j].id, (*b)[j].id);
        EXPECT_EQ((*a)[j].gram_count, (*b)[j].gram_count);
        EXPECT_EQ((*a)[j].position, (*b)[j].position);
      }
    }
  }
}

TEST(QGramIndexPayloadTest, UnknownGramHasNoPayloadPostings) {
  QGramIndex index(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  EXPECT_EQ(index.PayloadPostings(0xFFFFFFFFull), nullptr);
  EXPECT_EQ(index.Frequency(0xFFFFFFFFull), 0u);
}

TEST(QGramIndexPayloadTest, PrefixIndexingShrinksMemory) {
  const auto fill = [](TupleStore* store) {
    for (int i = 0; i < 50; ++i) {
      store->Add(
          Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
    }
  };
  ApproxFilterOptions length_only;
  length_only.length = true;
  TupleStore full_store(0);
  fill(&full_store);
  QGramIndex full(Q3(), length_only, text::SimilarityMeasure::kJaccard,
                  0.85);
  full.CatchUpWith(full_store);

  TupleStore prefix_store(0);
  fill(&prefix_store);
  QGramIndex prefixed(Q3(), AllFilters(),
                      text::SimilarityMeasure::kJaccard, 0.85);
  prefixed.CatchUpWith(prefix_store);

  // Both payload layouts account their postings; prefix posting drops
  // ~θ of the entries, which must show up in the memory estimate.
  EXPECT_GT(full.ApproximateMemoryUsage(), 0u);
  EXPECT_LT(prefixed.ApproximateMemoryUsage(),
            full.ApproximateMemoryUsage());
}

TEST(QGramIndexTest, FlatPostingTableMatchesReference) {
  // Both layouts keep their lists in the flat gram-key table. Indexed
  // far past the table's first size (several rehashes), every gram's
  // list must equal a reference built from the tuples' gram sets, in
  // insertion order; unknown grams have no list, and key 0 (three NUL
  // bytes) is an ordinary gram.
  TupleStore store(0);
  std::vector<std::string> values = {std::string(5, '\0'),
                                     std::string("A\0\0\0B", 5)};
  for (int i = 0; i < 600; ++i) {
    values.push_back("ROW " + std::to_string(i * 7919) + " VIA " +
                     std::to_string(i % 37));
  }
  for (const std::string& v : values) store.Add(Tuple{Value(v)});

  QGramIndex plain(Q3());
  QGramIndex payload(Q3(), ApproxFilterOptions::Full(),
                     text::SimilarityMeasure::kJaccard, 0.85);
  ApproxFilterOptions no_prefix = ApproxFilterOptions::Full();
  no_prefix.prefix = false;
  QGramIndex all_grams(Q3(), no_prefix, text::SimilarityMeasure::kJaccard,
                       0.85);
  // Catch up in uneven chunks: rehashes land between and inside calls.
  TupleStore growing(0);
  for (size_t i = 0; i < values.size(); ++i) {
    growing.Add(Tuple{Value(values[i])});
    if (i % 97 == 0 || i + 1 == values.size()) {
      plain.CatchUpWith(growing);
      all_grams.CatchUpWith(growing);
    }
  }
  payload.CatchUpWith(store);

  std::map<text::GramKey, std::vector<TupleId>> reference;
  for (size_t i = 0; i < values.size(); ++i) {
    const text::GramSet set = text::GramSet::Of(values[i], Q3());
    for (text::GramKey key : set.grams()) {
      reference[key].push_back(static_cast<TupleId>(i));
    }
  }
  ASSERT_GT(reference.size(), 256u);
  ASSERT_EQ(reference.count(0), 1u);
  EXPECT_EQ(plain.distinct_grams(), reference.size());
  EXPECT_EQ(all_grams.distinct_grams(), reference.size());
  for (const auto& [key, ids] : reference) {
    const std::vector<TupleId>* postings = plain.Postings(key);
    ASSERT_NE(postings, nullptr) << key;
    EXPECT_EQ(*postings, ids) << key;
    EXPECT_EQ(plain.Frequency(key), ids.size());
    const std::vector<GramPosting>* payload_postings =
        all_grams.PayloadPostings(key);
    ASSERT_NE(payload_postings, nullptr) << key;
    ASSERT_EQ(payload_postings->size(), ids.size());
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ((*payload_postings)[j].id, ids[j]);
    }
    EXPECT_EQ(all_grams.Frequency(key), ids.size());
    // The prefix layout posts a subset of each list.
    EXPECT_LE(payload.Frequency(key), ids.size());
  }
  const text::GramKey unknown = text::GramSet::Of("QQQ", Q3()).grams()[0];
  ASSERT_EQ(reference.count(unknown), 0u);
  EXPECT_EQ(plain.Postings(unknown), nullptr);
  EXPECT_EQ(plain.Frequency(unknown), 0u);
  EXPECT_EQ(payload.PayloadPostings(unknown), nullptr);
  EXPECT_EQ(payload.Frequency(unknown), 0u);
  EXPECT_LT(payload.distinct_grams(), reference.size());
  EXPECT_GT(payload.distinct_grams(), 0u);
}

/// Payload postings as the full-sort insert built them: each tuple's
/// grams ranked by (sampled frequency, key), the first g-k+1 (all g
/// without prefix filtering) posted with the tuple's gram count and
/// the gram's rank.
std::map<text::GramKey, std::vector<GramPosting>> FullSortPostings(
    const std::vector<std::string>& values, const text::GramOrder& order,
    bool prefix) {
  std::map<text::GramKey, std::vector<GramPosting>> postings;
  for (size_t id = 0; id < values.size(); ++id) {
    const text::GramSet set = text::GramSet::Of(values[id], Q3());
    std::vector<std::pair<uint64_t, text::GramKey>> ranked;
    for (text::GramKey key : set.grams()) {
      ranked.emplace_back(order.FrequencyOf(key), key);
    }
    std::sort(ranked.begin(), ranked.end());
    const size_t g = set.size();
    const size_t posted =
        prefix ? text::PrefixLengthFor(text::SimilarityMeasure::kJaccard, g,
                                       0.85)
               : g;
    for (size_t j = 0; j < posted; ++j) {
      postings[ranked[j].second].push_back(
          GramPosting{static_cast<TupleId>(id), static_cast<uint32_t>(g),
                      static_cast<uint32_t>(j)});
    }
  }
  return postings;
}

TEST(QGramIndexTest, LanePostingsMatchFullSortInsert) {
  // A payload index fed by its store's prefix lane posts exactly what
  // ranking every tuple's whole gram set did: same grams, and per gram
  // the same {id, gram_count, position} entries in the same order. So
  // does the lane-less fallback (a store without a gram cache).
  std::vector<std::string> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back("VIA " + std::to_string((i * 7919) % 1000) +
                     (i % 3 == 0 ? " SANTA CRISTINA" : " SAN MARTINO") +
                     std::to_string(i % 11));
  }
  values.push_back("A");
  auto order = std::make_shared<text::GramOrder>();
  for (size_t i = 0; i < values.size(); i += 4) {
    order->AddSample(values[i], Q3());
  }
  for (const bool prefix : {true, false}) {
    ApproxFilterOptions filter = ApproxFilterOptions::Full();
    filter.prefix = prefix;
    filter.gram_order = order;
    QGramIndex laned(Q3(), filter, text::SimilarityMeasure::kJaccard, 0.85);
    QGramIndex local(Q3(), filter, text::SimilarityMeasure::kJaccard, 0.85);
    TupleStore lane_store(0, Q3());
    lane_store.SetPrefixRule(laned.prefix_rule());
    TupleStore plain_store(0);
    for (size_t i = 0; i < values.size(); ++i) {
      lane_store.Add(Tuple{Value(values[i])});
      plain_store.Add(Tuple{Value(values[i])});
      if (i % 50 == 0) {
        laned.CatchUpWith(lane_store);
        local.CatchUpWith(plain_store);
      }
    }
    laned.CatchUpWith(lane_store);
    local.CatchUpWith(plain_store);

    const auto reference = FullSortPostings(values, *order, prefix);
    for (const QGramIndex* index : {&laned, &local}) {
      EXPECT_EQ(index->distinct_grams(), reference.size());
      for (const auto& [key, want] : reference) {
        const std::vector<GramPosting>* got = index->PayloadPostings(key);
        ASSERT_NE(got, nullptr) << key;
        ASSERT_EQ(got->size(), want.size()) << key;
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ((*got)[j].id, want[j].id);
          EXPECT_EQ((*got)[j].gram_count, want[j].gram_count);
          EXPECT_EQ((*got)[j].position, want[j].position);
        }
      }
    }
    // The insert ranked through the lane, which now holds every
    // tuple's prefix.
    for (TupleId id = 0; id < lane_store.size(); ++id) {
      EXPECT_EQ(lane_store.FilledPrefix(id).size(),
                laned.prefix_rule().LengthFor(lane_store.Grams(id).size()));
    }
  }
}

TEST(QGramIndexTest, MemoryUsageCountsSlotTable) {
  // The flat table keeps at least two slots per distinct gram, each a
  // key plus a list header; the footprint must cover them on top of
  // the posting entries.
  TupleStore store(0);
  for (int i = 0; i < 300; ++i) {
    store.Add(Tuple{Value("ROW " + std::to_string(i * 104729))});
  }
  QGramIndex plain(Q3());
  plain.CatchUpWith(store);
  QGramIndex payload(Q3(), ApproxFilterOptions::Full(),
                     text::SimilarityMeasure::kJaccard, 0.85);
  payload.CatchUpWith(store);
  const size_t plain_slot =
      sizeof(text::GramKey) + sizeof(std::vector<TupleId>);
  const size_t payload_slot =
      sizeof(text::GramKey) + sizeof(std::vector<GramPosting>);
  size_t plain_entries = 0;
  size_t payload_entries = 0;
  for (TupleId id = 0; id < store.size(); ++id) {
    const size_t g = plain.GramSetSize(id);
    plain_entries += g;
    payload_entries +=
        text::PrefixLengthFor(text::SimilarityMeasure::kJaccard, g, 0.85);
  }
  EXPECT_GE(plain.ApproximateMemoryUsage(),
            2 * plain.distinct_grams() * plain_slot +
                plain_entries * sizeof(TupleId));
  EXPECT_GE(payload.ApproximateMemoryUsage(),
            2 * payload.distinct_grams() * payload_slot +
                payload_entries * sizeof(GramPosting));
}

}  // namespace
}  // namespace join
}  // namespace aqp
