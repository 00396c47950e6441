#include "exec/prefetch.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adaptive/adaptive_join.h"
#include "common/failpoint.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "storage/relation.h"

namespace aqp {
namespace exec {
namespace {

using storage::ColumnBatch;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Relation ManyRows(size_t n) {
  Relation r(Schema({{"id", ValueType::kInt64},
                     {"s", ValueType::kString}}));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(r.Append(Tuple{Value(static_cast<int64_t>(i)),
                               Value("row-" + std::to_string(i))})
                    .ok());
  }
  return r;
}

std::vector<int64_t> DrainIds(Operator* op, size_t consumer_batch) {
  std::vector<int64_t> ids;
  ColumnBatch batch(&op->output_schema(), consumer_batch);
  while (true) {
    EXPECT_TRUE(op->NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(batch.MaterializeRow(i).at(0).AsInt64());
    }
  }
  return ids;
}

TEST(PrefetchSourceTest, StreamMatchesUnwrappedChildAcrossGeometries) {
  const Relation r = ManyRows(503);
  std::vector<int64_t> expected;
  for (size_t i = 0; i < r.size(); ++i) {
    expected.push_back(static_cast<int64_t>(i));
  }
  for (size_t depth : {size_t{1}, size_t{2}, size_t{5}}) {
    for (size_t producer_batch : {size_t{1}, size_t{7}, size_t{64}}) {
      for (size_t consumer_batch : {size_t{1}, size_t{13}, size_t{256}}) {
        SCOPED_TRACE(testing::Message()
                     << "depth=" << depth << " producer=" << producer_batch
                     << " consumer=" << consumer_batch);
        RelationScan scan(&r);
        PrefetchOptions options;
        options.depth = depth;
        options.batch_size = producer_batch;
        PrefetchSource prefetch(&scan, options);
        ASSERT_TRUE(prefetch.Open().ok());
        EXPECT_EQ(DrainIds(&prefetch, consumer_batch), expected);
        ASSERT_TRUE(prefetch.Close().ok());
        EXPECT_GT(prefetch.stats().refills, 0u);
      }
    }
  }
}

TEST(PrefetchSourceTest, RowProtocolMatchesChild) {
  const Relation r = ManyRows(37);
  RelationScan scan(&r);
  PrefetchSource prefetch(&scan);
  ASSERT_TRUE(prefetch.Open().ok());
  for (size_t i = 0; i < r.size(); ++i) {
    auto next = prefetch.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ((**next).at(0).AsInt64(), static_cast<int64_t>(i));
  }
  auto eos = prefetch.Next();
  ASSERT_TRUE(eos.ok());
  EXPECT_FALSE(eos->has_value());
  ASSERT_TRUE(prefetch.Close().ok());
}

TEST(PrefetchSourceTest, EndOfStreamIsSticky) {
  const Relation r = ManyRows(5);
  RelationScan scan(&r);
  PrefetchSource prefetch(&scan);
  ASSERT_TRUE(prefetch.Open().ok());
  (void)DrainIds(&prefetch, 8);
  ColumnBatch batch(&prefetch.output_schema(), 8);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(prefetch.NextColumnBatch(&batch).ok());
    EXPECT_TRUE(batch.empty());
  }
  ASSERT_TRUE(prefetch.Close().ok());
}

TEST(PrefetchSourceTest, CloseMidStreamJoinsProducerAndClosesChild) {
  const Relation r = ManyRows(1000);
  RelationScan scan(&r);
  PrefetchOptions options;
  options.depth = 4;
  options.batch_size = 16;
  PrefetchSource prefetch(&scan, options);
  ASSERT_TRUE(prefetch.Open().ok());
  ColumnBatch batch(&prefetch.output_schema(), 16);
  ASSERT_TRUE(prefetch.NextColumnBatch(&batch).ok());
  EXPECT_FALSE(batch.empty());
  ASSERT_TRUE(prefetch.Close().ok());
  // The child was closed too: its lifecycle rejects a second Close.
  EXPECT_TRUE(scan.Close().IsFailedPrecondition());
}

TEST(PrefetchSourceTest, ReopenRestartsFromTheTop) {
  const Relation r = ManyRows(50);
  RelationScan scan(&r);
  PrefetchSource prefetch(&scan);
  ASSERT_TRUE(prefetch.Open().ok());
  ColumnBatch batch(&prefetch.output_schema(), 8);
  ASSERT_TRUE(prefetch.NextColumnBatch(&batch).ok());
  ASSERT_TRUE(prefetch.Close().ok());
  ASSERT_TRUE(prefetch.Open().ok());
  ASSERT_TRUE(prefetch.NextColumnBatch(&batch).ok());
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(batch.MaterializeRow(0).at(0).AsInt64(), 0);
  ASSERT_TRUE(prefetch.Close().ok());
}

TEST(PrefetchSourceTest, DestructorWithoutCloseDoesNotHang) {
  const Relation r = ManyRows(200);
  RelationScan scan(&r);
  {
    PrefetchSource prefetch(&scan);
    ASSERT_TRUE(prefetch.Open().ok());
    // Dropped with the producer possibly parked full — the destructor
    // must stop and join it.
  }
  ASSERT_TRUE(scan.Close().ok());
}

class PrefetchFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
    }
    fail::DisarmAll();
  }
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(PrefetchFailpointTest, InjectedFaultSurfacesWithoutLosingRows) {
  // The fault fires on the producer's 3rd refill; rows already
  // buffered are delivered first, the error surfaces on a call that
  // delivers none, and — the non-sticky contract — the next call
  // restarts the producer and the stream completes with no row lost
  // or duplicated.
  const Relation r = ManyRows(100);
  RelationScan scan(&r);
  PrefetchOptions options;
  options.depth = 1;  // deterministic: fault lands on chunk 3
  options.batch_size = 10;
  PrefetchSource prefetch(&scan, options);
  fail::ScopedFailpoint guard(
      fail::site::kIngestPrefetch,
      fail::Policy::OnNthHit(3, Status::Unavailable("transient blip")));
  ASSERT_TRUE(prefetch.Open().ok());
  std::vector<int64_t> ids;
  ColumnBatch batch(&prefetch.output_schema(), 10);
  bool saw_error = false;
  while (true) {
    Status status = prefetch.NextColumnBatch(&batch);
    if (!status.ok()) {
      EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
      EXPECT_NE(status.ToString().find("site=ingest.prefetch"),
                std::string::npos);
      saw_error = true;
      continue;  // retry, as the exchange's source-retry loop would
    }
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(batch.MaterializeRow(i).at(0).AsInt64());
    }
  }
  EXPECT_TRUE(saw_error);
  ASSERT_EQ(ids.size(), r.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i));
  }
  ASSERT_TRUE(prefetch.Close().ok());
}

TEST_F(PrefetchFailpointTest, ErrorChunkNeverPreemptsBufferedRows) {
  // With depth > 1 the producer may have good chunks queued ahead of
  // the faulting one; they must all be served before the error.
  const Relation r = ManyRows(60);
  RelationScan scan(&r);
  PrefetchOptions options;
  options.depth = 3;
  options.batch_size = 10;
  PrefetchSource prefetch(&scan, options);
  fail::ScopedFailpoint guard(
      fail::site::kIngestPrefetch,
      fail::Policy::OnNthHit(4, Status::IOError("bad sector")));
  ASSERT_TRUE(prefetch.Open().ok());
  std::vector<int64_t> ids;
  ColumnBatch batch(&prefetch.output_schema(), 10);
  Status error = Status::OK();
  while (true) {
    Status status = prefetch.NextColumnBatch(&batch);
    if (!status.ok()) {
      error = status;
      break;
    }
    ASSERT_FALSE(batch.empty()) << "EOS before the injected fault";
    for (size_t i = 0; i < batch.size(); ++i) {
      ids.push_back(batch.MaterializeRow(i).at(0).AsInt64());
    }
  }
  EXPECT_TRUE(error.IsIOError());
  // Chunks 1–3 (rows 0..29) preceded the faulting 4th refill.
  ASSERT_EQ(ids.size(), 30u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<int64_t>(i));
  }
  ASSERT_TRUE(prefetch.Close().ok());
}

TEST_F(PrefetchFailpointTest, PrefetchFaultSurfacesThroughWrappedSource) {
  // Under the parallel join, a transient fault in a PrefetchSource
  // producer must surface like a child error and be absorbed by the
  // exchange's source-retry loop: rows and adaptation trace stay those
  // of the fault-free single-threaded run.
  datagen::TestCaseOptions case_options;
  case_options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  case_options.perturb_parent = false;
  case_options.variant_rate = 0.10;
  case_options.atlas.size = 400;
  case_options.accidents.size = 800;
  case_options.seed = 20090326;
  auto tc = datagen::GenerateTestCase(case_options);
  ASSERT_TRUE(tc.ok());

  adaptive::AdaptiveJoinOptions base;
  base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  base.join.spec.right_column = datagen::kAtlasLocationColumn;
  base.join.spec.sim_threshold = 0.85;
  base.adaptive.parent_side = Side::kRight;
  base.adaptive.parent_table_size = tc->parent.size();
  base.adaptive.delta_adapt = 50;
  base.adaptive.window = 50;

  RelationScan reference_child(&tc->child);
  RelationScan reference_parent(&tc->parent);
  adaptive::AdaptiveJoin reference(&reference_child, &reference_parent, base);
  auto expected = CollectAll(&reference);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  RelationScan child_scan(&tc->child);
  RelationScan parent_scan(&tc->parent);
  PrefetchSource child(&child_scan);
  PrefetchSource parent(&parent_scan);
  parallel::ParallelJoinOptions options;
  options.base = base;
  options.num_shards = 2;
  options.source_retry.max_retries = 2;
  parallel::ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kIngestPrefetch,
      fail::Policy::OnNthHit(2, Status::Unavailable("transient blip")));
  auto result = CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(result->row(i), expected->row(i)) << "row " << i;
  }
  ASSERT_EQ(join.trace().size(), reference.trace().size());
  for (size_t i = 0; i < reference.trace().size(); ++i) {
    EXPECT_EQ(join.trace().records()[i], reference.trace().records()[i])
        << "assessment " << i;
  }
  EXPECT_GE(join.source_retries(), 1u);
}

}  // namespace
}  // namespace exec
}  // namespace aqp
