#include "storage/tuple_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "text/gram_order.h"

namespace aqp {
namespace storage {
namespace {

TEST(TupleStoreTest, AddAssignsDenseIds) {
  TupleStore store(/*join_column=*/0);
  EXPECT_EQ(store.Add(Tuple{Value("a")}), 0u);
  EXPECT_EQ(store.Add(Tuple{Value("b")}), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.GetTuple(1).at(0).AsString(), "b");
}

TEST(TupleStoreTest, JoinKeyUsesConfiguredColumn) {
  TupleStore store(/*join_column=*/1);
  const TupleId id = store.Add(Tuple{Value(7), Value("LOC")});
  EXPECT_EQ(store.JoinKey(id), "LOC");
  EXPECT_EQ(store.join_column(), 1u);
}

TEST(TupleStoreTest, MatchedExactlyFlags) {
  TupleStore store(0);
  const TupleId a = store.Add(Tuple{Value("a")});
  const TupleId b = store.Add(Tuple{Value("b")});
  EXPECT_FALSE(store.MatchedExactly(a));
  store.SetMatchedExactly(a);
  EXPECT_TRUE(store.MatchedExactly(a));
  EXPECT_FALSE(store.MatchedExactly(b));
  EXPECT_EQ(store.CountMatchedExactly(), 1u);
  store.SetMatchedExactly(a);  // idempotent
  EXPECT_EQ(store.CountMatchedExactly(), 1u);
}

TEST(TupleStoreTest, MatchedAnyFirstTimeDetection) {
  TupleStore store(0);
  const TupleId a = store.Add(Tuple{Value("a")});
  EXPECT_FALSE(store.MatchedAny(a));
  EXPECT_TRUE(store.SetMatchedAny(a));   // first set
  EXPECT_FALSE(store.SetMatchedAny(a));  // already set
  store.IncrementMatchedAnyCount();
  EXPECT_EQ(store.matched_any_count(), 1u);
}

TEST(TupleStoreTest, MemoryUsageGrows) {
  TupleStore store(0);
  const size_t empty = store.ApproximateMemoryUsage();
  for (int i = 0; i < 100; ++i) {
    store.Add(Tuple{Value("some location string of decent length")});
  }
  EXPECT_GT(store.ApproximateMemoryUsage(), empty + 100 * 30);
}

TEST(TupleStoreTest, KeyHashIsCachedFnv1a) {
  TupleStore store(/*join_column=*/1);
  const TupleId id = store.Add(Tuple{Value(7), Value("SANTA CRISTINA")});
  EXPECT_EQ(store.KeyHash(id), Fnv1a64("SANTA CRISTINA"));
  EXPECT_EQ(store.KeyLength(id), 14u);
}

// Regression: JoinKey() views and cached hashes must survive store
// growth — the intern arena may allocate new chunks but never
// relocates interned bytes.
TEST(TupleStoreTest, JoinKeyViewsAndHashesSurviveGrowth) {
  TupleStore store(0);
  std::vector<std::string> expected;
  std::vector<std::string_view> early_views;
  // Enough distinct keys to span several 64 KiB arena chunks and many
  // reallocations of every per-tuple vector.
  for (int i = 0; i < 5000; ++i) {
    expected.push_back("location string number " + std::to_string(i));
    const TupleId id = store.Add(Tuple{Value(expected.back())});
    early_views.push_back(store.JoinKey(id));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto id = static_cast<TupleId>(i);
    // The view captured right after Add still reads the same bytes...
    EXPECT_EQ(early_views[i], expected[i]) << "key " << i;
    // ...and is the same arena memory JoinKey returns now.
    EXPECT_EQ(early_views[i].data(), store.JoinKey(id).data());
    EXPECT_EQ(store.JoinKey(id), expected[i]);
    EXPECT_EQ(store.KeyHash(id), Fnv1a64(expected[i]));
  }
}

// §2.3 space accounting of the arena-backed layout: the footprint must
// cover the interned key copies (arena chunks) and the per-tuple
// {offset, len, hash} records on top of the payload tuples.
TEST(TupleStoreTest, MemoryUsageAccountsArenaAndKeyRecords) {
  TupleStore store(0);
  const size_t empty = store.ApproximateMemoryUsage();
  const std::string key(100, 'x');
  constexpr size_t kTuples = 1500;  // 150 KB of keys: > two arena chunks
  for (size_t i = 0; i < kTuples; ++i) {
    store.Add(Tuple{Value(key)});
  }
  const size_t usage = store.ApproximateMemoryUsage();
  // Key bytes are stored exactly once (the arena copy — the columnar
  // payload no longer duplicates the join column) plus a 24-byte key
  // record; anything below that undercounts §2.3 space.
  EXPECT_GT(usage, empty + kTuples * (key.size() + 24));
}

TEST(TupleStoreTest, GramCacheMemoizedAndAccounted) {
  text::QGramOptions q3;
  TupleStore store(0, q3);
  ASSERT_TRUE(store.gram_cache_enabled());
  const TupleId id = store.Add(Tuple{Value("SANTA CRISTINA")});
  const size_t before = store.ApproximateMemoryUsage();
  const text::GramSet& grams = store.Grams(id);
  EXPECT_EQ(grams, text::GramSet::Of("SANTA CRISTINA", q3));
  // Extracted exactly once: repeated calls return the same object.
  EXPECT_EQ(&store.Grams(id), &grams);
  // The cached set's bytes are part of the store's §2.3 footprint.
  EXPECT_GT(store.ApproximateMemoryUsage(), before);
}

TEST(TupleStorePrefixLaneTest, PrefixIsRankedOnceInAnyFillOrder) {
  text::QGramOptions q3;
  TupleStore store(0, q3);
  EXPECT_EQ(store.prefix_rule(), nullptr);
  std::vector<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("VIA " + std::to_string(i * 37) + " SANTA CRISTINA " +
                   std::to_string(i % 7));
    store.Add(Tuple{Value(keys.back())});
  }
  store.Add(Tuple{Value("")});  // with padding: 2 grams
  auto order = std::make_shared<text::GramOrder>();
  for (size_t i = 0; i < keys.size(); i += 3) order->AddSample(keys[i], q3);
  for (const bool prefix : {true, false}) {
    TupleStore lane(0, q3);
    for (const std::string& key : keys) lane.Add(Tuple{Value(key)});
    lane.Add(Tuple{Value("")});
    const text::PrefixRule rule{order, text::SimilarityMeasure::kJaccard,
                                0.85, prefix};
    lane.SetPrefixRule(rule);
    ASSERT_NE(lane.prefix_rule(), nullptr);
    EXPECT_TRUE(*lane.prefix_rule() == rule);
    const size_t before = lane.ApproximateMemoryUsage();
    // Fill out of id order (as probes and catch-ups do), then read
    // every prefix back through both accessors.
    std::vector<std::vector<uint32_t>> want(lane.size());
    std::vector<uint64_t> scratch;
    size_t positions = 0;
    for (size_t n = 0; n < lane.size(); ++n) {
      const auto id = static_cast<TupleId>((n * 7) % lane.size());
      text::OrderedPrefixInto(lane.Grams(id), rule, &scratch, &want[id]);
      const text::PrefixView view = lane.Prefix(id);
      EXPECT_EQ(std::vector<uint32_t>(view.begin(), view.end()), want[id]);
      positions += want[id].size();
    }
    for (TupleId id = 0; id < lane.size(); ++id) {
      const text::PrefixView filled = lane.FilledPrefix(id);
      EXPECT_EQ(std::vector<uint32_t>(filled.begin(), filled.end()),
                want[id]);
      const text::PrefixView again = lane.Prefix(id);
      EXPECT_EQ(again.begin(), filled.begin()) << "prefix re-ranked";
      if (!prefix) EXPECT_EQ(filled.size(), lane.Grams(id).size());
    }
    // The lane's slots and positions count in the store's footprint.
    EXPECT_GE(lane.ApproximateMemoryUsage(),
              before + lane.size() * 2 * sizeof(uint32_t) +
                  positions * sizeof(uint32_t));
  }
}

TEST(TupleStorePrefixLaneTest, OrderIsFrozenByTheFirstFill) {
  text::QGramOptions q3;
  TupleStore store(0, q3);
  store.Add(Tuple{Value("SANTA CRISTINA")});
  store.Add(Tuple{Value("SANTA MARIA")});
  const text::PrefixRule rule{nullptr, text::SimilarityMeasure::kJaccard,
                              0.85, true};
  // Re-installing before any fill is allowed (the engine installs its
  // sampled order after constructing with none).
  store.SetPrefixRule(rule);
  store.SetPrefixRule(rule);
  EXPECT_EQ(store.Prefix(1).size(),
            text::PrefixLengthFor(text::SimilarityMeasure::kJaccard,
                                  store.Grams(1).size(), 0.85));
  // After a fill, another order would mix two orders in one lane.
  EXPECT_DEBUG_DEATH(store.SetPrefixRule(rule), "frozen");
#ifndef NDEBUG
  // The read-only accessor never fills.
  EXPECT_DEATH(store.FilledPrefix(0), "before its fill");
#endif
}

TEST(TupleStoreTest, PlainStoreHasNoGramCache) {
  TupleStore store(0);
  EXPECT_FALSE(store.gram_cache_enabled());
}

// The native columnar ingest path must agree with the row adapter in
// every artifact: ids, keys, hashes, and materialized payloads.
TEST(TupleStoreTest, AddRowMatchesTupleAdapter) {
  Schema schema({{"id", ValueType::kInt64},
                 {"loc", ValueType::kString},
                 {"lat", ValueType::kDouble}});
  ColumnBatch batch(&schema, 4);
  batch.AppendTupleRow(Tuple{Value(7), Value("SANTA CRISTINA"), Value(1.5)});
  batch.AppendTupleRow(Tuple{Value(8), Value("PROLOQUIO"), Value()});
  batch.ComputeKeyHashes(1);

  TupleStore columnar(/*join_column=*/1);
  TupleStore rowwise(/*join_column=*/1);
  for (size_t r = 0; r < batch.size(); ++r) {
    const TupleId a = columnar.AddRow(batch, r, batch.key_hash(r));
    const TupleId b = rowwise.Add(batch.MaterializeRow(r));
    ASSERT_EQ(a, b);
    EXPECT_EQ(columnar.JoinKey(a), rowwise.JoinKey(b));
    EXPECT_EQ(columnar.KeyHash(a), rowwise.KeyHash(b));
    EXPECT_EQ(columnar.GetTuple(a), rowwise.GetTuple(b));
  }
  EXPECT_EQ(columnar.GetTuple(0).at(0).AsInt64(), 7);
  EXPECT_EQ(columnar.GetTuple(1).at(1).AsString(), "PROLOQUIO");
  EXPECT_TRUE(columnar.GetTuple(1).at(2).is_null());
}

// AppendCellsTo writes the stored payload slice into an output batch
// (the late-materialization sink path) byte-identically to GetTuple.
TEST(TupleStoreTest, AppendCellsToMatchesGetTuple) {
  TupleStore store(/*join_column=*/0);
  store.Add(Tuple{Value("key-a"), Value(1), Value(0.5)});
  store.Add(Tuple{Value("key-b"), Value(), Value(2.25)});

  Schema out_schema({{"loc", ValueType::kString},
                     {"n", ValueType::kInt64},
                     {"x", ValueType::kDouble}});
  ColumnBatch out(&out_schema, 4);
  for (TupleId id = 0; id < store.size(); ++id) {
    store.AppendCellsTo(id, &out, 0);
    out.CommitRow();
  }
  ASSERT_EQ(out.size(), 2u);
  for (TupleId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(out.MaterializeRow(id), store.GetTuple(id)) << "row " << id;
  }
}

// A column whose first rows are NULL latches its type on the first
// typed cell and backfills placeholders — later reads of the early
// rows stay NULL.
TEST(TupleStoreTest, LeadingNullsLatchColumnTypeLate) {
  TupleStore store(/*join_column=*/0);
  store.Add(Tuple{Value("a"), Value()});
  store.Add(Tuple{Value("b"), Value()});
  store.Add(Tuple{Value("c"), Value(42)});
  EXPECT_TRUE(store.GetTuple(0).at(1).is_null());
  EXPECT_TRUE(store.GetTuple(1).at(1).is_null());
  EXPECT_EQ(store.GetTuple(2).at(1).AsInt64(), 42);
}

}  // namespace
}  // namespace storage
}  // namespace aqp
