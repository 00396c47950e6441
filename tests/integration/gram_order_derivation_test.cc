// The gram order a filtered join derives when its caller supplies none
// (JoinSpec::filter's default): sampled from the first
// GramOrderSampler::kKeysPerSide join keys of each input, frozen before
// the first q-gram insert, owned by the running join, and built only
// from rows the engine had pulled anyway — so sampling moves no source
// read and no end-of-stream discovery.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "join/filter.h"
#include "text/gram_order.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;
using exec::parallel::EpochDirective;
using exec::parallel::EpochView;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;
using join::GramOrderSampler;

constexpr size_t kK = GramOrderSampler::kKeysPerSide;

datagen::TestCase PaperCase() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.perturb_parent = false;
  options.variant_rate = 0.10;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.seed = 20090326;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

/// Default filter options (full stack, no caller order).
AdaptiveJoinOptions DefaultOptions(const datagen::TestCase& tc,
                                   size_t batch_size) {
  AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.join.spec.sim_threshold = 0.85;
  options.join.batch_size = batch_size;
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  return options;
}

/// The order built by hand from the first `child_keys` join keys of the
/// child (left) input and the first `parent_keys` of the parent.
text::GramOrder HeadOrder(const datagen::TestCase& tc, size_t child_keys,
                          size_t parent_keys,
                          const text::QGramOptions& qgram) {
  text::GramOrder order;
  for (size_t i = 0; i < child_keys && i < tc.child.size(); ++i) {
    order.AddSample(
        tc.child.row(i)[datagen::kAccidentsLocationColumn].AsString(), qgram);
  }
  for (size_t i = 0; i < parent_keys && i < tc.parent.size(); ++i) {
    order.AddSample(
        tc.parent.row(i)[datagen::kAtlasLocationColumn].AsString(), qgram);
  }
  return order;
}

std::shared_ptr<const text::GramOrder> ParallelOrder(
    const datagen::TestCase& tc, const AdaptiveJoinOptions& base,
    size_t shards) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = base;
  options.num_shards = shards;
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto rows = exec::CountAll(&join);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  // A derived order is never written back into the caller-visible
  // options.
  EXPECT_EQ(join.options().base.join.spec.filter.gram_order,
            base.join.spec.filter.gram_order);
  return join.gram_order();
}

TEST(GramOrderDerivationTest, SamplerHoldsAtMostKKeysPerSide) {
  const text::QGramOptions qgram;
  GramOrderSampler sampler(qgram);
  text::GramOrder expected;
  for (size_t i = 0; i < 3 * kK; ++i) {
    const std::string left = "LEFT KEY " + std::to_string(i);
    const std::string right = "RIGHT KEY " + std::to_string(i % 17);
    EXPECT_EQ(sampler.Add(exec::Side::kLeft, left), i < kK);
    if (i < kK) expected.AddSample(left, qgram);
    if (i < kK / 2) {
      EXPECT_TRUE(sampler.Add(exec::Side::kRight, right));
      expected.AddSample(right, qgram);
    }
  }
  EXPECT_EQ(sampler.sampled(exec::Side::kLeft), kK);
  EXPECT_EQ(sampler.sampled(exec::Side::kRight), kK / 2);
  const auto order = sampler.Finish();
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(*order, expected);
}

TEST(GramOrderDerivationTest, DeterministicAndShardCountInvariant) {
  const datagen::TestCase tc = PaperCase();
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size);
    const AdaptiveJoinOptions options = DefaultOptions(tc, batch_size);
    const auto first = ParallelOrder(tc, options, 1);
    ASSERT_NE(first, nullptr);
    EXPECT_GT(first->distinct(), 0u);
    const auto again = ParallelOrder(tc, options, 1);
    ASSERT_NE(again, nullptr);
    EXPECT_NE(again, first);  // each run owns its own order
    EXPECT_EQ(*again, *first);
    for (size_t shards : {size_t{2}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      const auto sharded = ParallelOrder(tc, options, shards);
      ASSERT_NE(sharded, nullptr);
      EXPECT_EQ(*sharded, *first);
    }
  }
}

TEST(GramOrderDerivationTest, SamplesTheFirstKKeysOfEachInput) {
  // With 1024-row refills, the first epoch (δ_adapt = 50 steps) leaves
  // more than K rows of each side pulled: the order is exactly the
  // head sample, in both engines.
  const datagen::TestCase tc = PaperCase();
  ASSERT_GT(tc.child.size(), kK);
  ASSERT_GT(tc.parent.size(), kK);
  const AdaptiveJoinOptions options = DefaultOptions(tc, 1024);
  const text::GramOrder expected =
      HeadOrder(tc, kK, kK, options.join.spec.qgram);
  const auto parallel = ParallelOrder(tc, options, 2);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(*parallel, expected);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  ASSERT_TRUE(exec::CountAll(&join).ok());
  ASSERT_GT(join.cost().total_transitions(), 0u);
  ASSERT_NE(join.core().gram_order(), nullptr);
  EXPECT_EQ(*join.core().gram_order(), expected);
  EXPECT_EQ(join.options().spec.filter.gram_order, nullptr);
}

TEST(GramOrderDerivationTest, SmallBatchesSampleOnlyPulledRows) {
  // Tuple-at-a-time refills: after the first 50-step epoch only 25 rows
  // of each side have been pulled, and the order holds exactly those.
  const datagen::TestCase tc = PaperCase();
  const AdaptiveJoinOptions options = DefaultOptions(tc, 1);
  const auto order = ParallelOrder(tc, options, 4);
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(*order, HeadOrder(tc, 25, 25, options.join.spec.qgram));
}

TEST(GramOrderDerivationTest, SwitchBeforeAnyReadWaitsForPulledRows) {
  // A script entering lap/rap at step 0 switches before anything was
  // read; the switch catches up nothing, so the order is frozen at
  // step 1, from the first refill of the left (child) input — the only
  // rows pulled by then.
  const datagen::TestCase tc = PaperCase();
  AdaptiveJoinOptions options = DefaultOptions(tc, 1024);
  options.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  options.adaptive.script = {{0, adaptive::ProcessorState::kLapRap}};
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  ASSERT_TRUE(exec::CountAll(&join).ok());
  ASSERT_NE(join.core().gram_order(), nullptr);
  EXPECT_EQ(*join.core().gram_order(),
            HeadOrder(tc, kK, 0, options.join.spec.qgram));
}

TEST(GramOrderDerivationTest, CallerOrderWins) {
  const datagen::TestCase tc = PaperCase();
  AdaptiveJoinOptions options = DefaultOptions(tc, 64);
  auto caller = std::make_shared<text::GramOrder>();
  caller->AddFrequency(42, 7);
  options.join.spec.filter.gram_order = caller;
  EXPECT_EQ(ParallelOrder(tc, options, 2), caller);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  ASSERT_TRUE(exec::CountAll(&join).ok());
  EXPECT_EQ(join.core().gram_order(), caller);
}

TEST(GramOrderDerivationTest, OrderDiesWithTheJoin) {
  const datagen::TestCase tc = PaperCase();
  std::weak_ptr<const text::GramOrder> order;
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = DefaultOptions(tc, 64);
    options.num_shards = 2;
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(exec::CountAll(&join).ok());
    order = join.gram_order();
    EXPECT_FALSE(order.expired());
  }
  EXPECT_TRUE(order.expired());
}

/// Pass-through child that records what the join pulled from it.
class CountingChild : public exec::Operator {
 public:
  explicit CountingChild(const storage::Relation* relation)
      : scan_(relation) {}
  Status Open() override { return scan_.Open(); }
  Result<std::optional<storage::Tuple>> Next() override {
    ++calls_;
    auto row = scan_.Next();
    if (row.ok() && row->has_value()) {
      ++rows_;
    } else if (row.ok() && eos_call_ == 0) {
      eos_call_ = calls_;
    }
    return row;
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    ++calls_;
    Status status = scan_.NextColumnBatch(out);
    rows_ += out->size();
    if (status.ok() && out->empty() && eos_call_ == 0) eos_call_ = calls_;
    return status;
  }
  Status Close() override { return scan_.Close(); }
  const storage::Schema& output_schema() const override {
    return scan_.output_schema();
  }
  std::string name() const override { return "CountingChild"; }

  /// (pull calls, rows delivered, call that reported end-of-stream).
  std::vector<uint64_t> reads() const { return {calls_, rows_, eos_call_}; }

 private:
  exec::RelationScan scan_;
  uint64_t calls_ = 0;
  uint64_t rows_ = 0;
  uint64_t eos_call_ = 0;
};

struct Reads {
  std::vector<uint64_t> child;
  std::vector<uint64_t> parent;
  uint64_t steps = 0;
  uint64_t pairs = 0;
};

/// Single-threaded drive of `max_batches` output batches (0 = all).
Reads SingleThreadedReads(const datagen::TestCase& tc,
                          const AdaptiveJoinOptions& options,
                          size_t max_batches) {
  CountingChild child(&tc.child);
  CountingChild parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  EXPECT_TRUE(join.Open().ok());
  storage::TupleBatch batch(nullptr, 16);
  for (size_t i = 0; max_batches == 0 || i < max_batches; ++i) {
    EXPECT_TRUE(join.NextBatch(&batch).ok());
    if (batch.empty()) break;
  }
  Reads reads{child.reads(), parent.reads(), join.steps(),
              join.core().pairs_emitted()};
  EXPECT_TRUE(join.Close().ok());
  return reads;
}

/// Parallel drive, finalized at the first control point past
/// `finalize_at` steps (0 = run to the end).
Reads ParallelReads(const datagen::TestCase& tc,
                    const AdaptiveJoinOptions& base, size_t shards,
                    uint64_t finalize_at) {
  CountingChild child(&tc.child);
  CountingChild parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = base;
  options.num_shards = shards;
  if (finalize_at > 0) {
    options.governor = [finalize_at](const EpochView& view) {
      return view.steps >= finalize_at ? EpochDirective::kFinalize
                                       : EpochDirective::kProceed;
    };
  }
  ParallelAdaptiveJoin join(&child, &parent, options);
  EXPECT_TRUE(exec::CountAll(&join).ok());
  return Reads{child.reads(), parent.reads(), join.steps(),
               join.pairs_emitted()};
}

void ExpectSameReads(const Reads& actual, const Reads& expected) {
  EXPECT_EQ(actual.child, expected.child);
  EXPECT_EQ(actual.parent, expected.parent);
  EXPECT_EQ(actual.steps, expected.steps);
  EXPECT_EQ(actual.pairs, expected.pairs);
}

TEST(GramOrderDerivationTest, PullsNoRowTheUnfilteredRunWouldNot) {
  const datagen::TestCase tc = PaperCase();
  for (bool pinned_approximate : {false, true}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
      SCOPED_TRACE(testing::Message()
                   << "pinned_approximate=" << pinned_approximate
                   << " batch_size=" << batch_size);
      AdaptiveJoinOptions derived = DefaultOptions(tc, batch_size);
      if (pinned_approximate) {
        derived.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
        derived.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
      }
      AdaptiveJoinOptions unfiltered = derived;
      unfiltered.join.spec.filter = join::ApproxFilterOptions{};
      // Partial drives stop mid-input, where an early read would show.
      for (size_t batches : {size_t{1}, size_t{5}, size_t{0}}) {
        SCOPED_TRACE(testing::Message() << "output batches=" << batches);
        ExpectSameReads(SingleThreadedReads(tc, derived, batches),
                        SingleThreadedReads(tc, unfiltered, batches));
      }
      for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        for (uint64_t finalize_at : {uint64_t{60}, uint64_t{400},
                                     uint64_t{0}}) {
          SCOPED_TRACE(testing::Message() << "shards=" << shards
                                          << " finalize_at=" << finalize_at);
          ExpectSameReads(ParallelReads(tc, derived, shards, finalize_at),
                          ParallelReads(tc, unfiltered, shards, finalize_at));
        }
      }
    }
  }
}

}  // namespace
}  // namespace aqp
