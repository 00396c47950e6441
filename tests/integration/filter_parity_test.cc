// The filter stack (length / prefix / positional, §2.2's SSJoin
// lineage) must be invisible in everything but cost: for every filter
// combination — and for the default options, which run the full stack
// under a gram order the engine derives from the input head — the
// adaptive join must produce byte-identical output rows in identical
// order AND a byte-identical MAR adaptation trace against the
// explicitly unfiltered baseline, across batch sizes and shard counts. The exactness arguments live in
// join/filter.h; this suite is the end-to-end proof on the paper
// scenario — which must actually adapt, or the parity claim is
// vacuous.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "text/gram_order.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;

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

/// The explicitly unfiltered baseline configuration (the paper's plain
/// counted-candidate walk); tests switch filters on from here.
AdaptiveJoinOptions BaseOptions(const datagen::TestCase& tc,
                                size_t batch_size = 64) {
  AdaptiveJoinOptions options;
  options.join.spec.filter = join::ApproxFilterOptions{};
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

std::vector<join::ApproxFilterOptions> AllFilterCombinations() {
  std::vector<join::ApproxFilterOptions> combos;
  for (int mask = 0; mask < 8; ++mask) {
    join::ApproxFilterOptions f;
    f.length = (mask & 1) != 0;
    f.prefix = (mask & 2) != 0;
    f.positional = (mask & 4) != 0;
    combos.push_back(f);
  }
  return combos;
}

struct ReferenceRun {
  storage::Relation result;
  adaptive::AdaptationTrace trace;
  uint64_t steps = 0;
  uint64_t pairs = 0;
  uint64_t transitions = 0;
  /// The gram order the run's filtered indexes used.
  std::shared_ptr<const text::GramOrder> order;
};

ReferenceRun RunAdaptive(const datagen::TestCase& tc,
                         AdaptiveJoinOptions options) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ReferenceRun run;
  run.result = std::move(*result);
  run.trace = join.trace();
  run.steps = join.steps();
  run.pairs = join.core().pairs_emitted();
  run.transitions = join.cost().total_transitions();
  run.order = join.core().gram_order();
  return run;
}

ReferenceRun RunParallel(const datagen::TestCase& tc,
                         AdaptiveJoinOptions base, size_t shards) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = std::move(base);
  options.num_shards = shards;
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ReferenceRun run;
  run.result = std::move(*result);
  run.trace = join.trace();
  run.steps = join.steps();
  run.pairs = join.pairs_emitted();
  run.transitions = join.cost().total_transitions();
  run.order = join.gram_order();
  return run;
}

void ExpectSameRows(const storage::Relation& actual,
                    const storage::Relation& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

void ExpectSameTrace(const adaptive::AdaptationTrace& actual,
                     const adaptive::AdaptationTrace& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.records()[i], expected.records()[i])
        << "assessment " << i;
  }
}

TEST(FilterParityTest, EveryFilterCombinationMatchesUnfilteredBaseline) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunAdaptive(tc, BaseOptions(tc));
  ASSERT_GT(reference.result.size(), 0u);
  ASSERT_GT(reference.trace.size(), 0u);
  ASSERT_GT(reference.transitions, 0u);

  for (const join::ApproxFilterOptions& filter : AllFilterCombinations()) {
    SCOPED_TRACE(testing::Message() << "filter=" << filter.Label());
    AdaptiveJoinOptions options = BaseOptions(tc);
    options.join.spec.filter = filter;
    const ReferenceRun filtered = RunAdaptive(tc, options);
    EXPECT_EQ(filtered.steps, reference.steps);
    EXPECT_EQ(filtered.pairs, reference.pairs);
    EXPECT_EQ(filtered.transitions, reference.transitions);
    ExpectSameRows(filtered.result, reference.result);
    ExpectSameTrace(filtered.trace, reference.trace);
  }
}

TEST(FilterParityTest, FullStackMatchesAcrossBatchSizes) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunAdaptive(tc, BaseOptions(tc, 1));
  ASSERT_GT(reference.transitions, 0u);
  join::ApproxFilterOptions full;
  full.length = full.prefix = full.positional = true;
  // 7 staggers against δ_adapt = 50; 256 spans several control windows.
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size);
    AdaptiveJoinOptions options = BaseOptions(tc, batch_size);
    options.join.spec.filter = full;
    const ReferenceRun filtered = RunAdaptive(tc, options);
    EXPECT_EQ(filtered.steps, reference.steps);
    ExpectSameRows(filtered.result, reference.result);
    ExpectSameTrace(filtered.trace, reference.trace);
  }
}

TEST(FilterParityTest, FullStackMatchesAcrossShardCounts) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunAdaptive(tc, BaseOptions(tc));
  ASSERT_GT(reference.transitions, 0u);
  join::ApproxFilterOptions full;
  full.length = full.prefix = full.positional = true;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.base.join.spec.filter = full;
    options.num_shards = shards;
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(join.steps(), reference.steps);
    EXPECT_EQ(join.pairs_emitted(), reference.pairs);
    ExpectSameRows(*result, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(FilterParityTest, SampledGramOrderPreservesParity) {
  // A corpus-sampled frequency order changes which grams form each
  // prefix — cost, not results: parity must hold exactly as with the
  // default key order.
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunAdaptive(tc, BaseOptions(tc));
  ASSERT_GT(reference.transitions, 0u);

  AdaptiveJoinOptions options = BaseOptions(tc);
  auto order = std::make_shared<text::GramOrder>();
  for (size_t i = 0; i < tc.parent.size(); ++i) {
    order->AddSample(
        tc.parent.row(i)[datagen::kAtlasLocationColumn].AsString(),
        options.join.spec.qgram);
  }
  for (size_t i = 0; i < tc.child.size(); ++i) {
    order->AddSample(
        tc.child.row(i)[datagen::kAccidentsLocationColumn].AsString(),
        options.join.spec.qgram);
  }
  ASSERT_GT(order->distinct(), 0u);
  options.join.spec.filter.length = true;
  options.join.spec.filter.prefix = true;
  options.join.spec.filter.positional = true;
  options.join.spec.filter.gram_order = order;
  const ReferenceRun filtered = RunAdaptive(tc, options);
  EXPECT_EQ(filtered.steps, reference.steps);
  EXPECT_EQ(filtered.pairs, reference.pairs);
  ExpectSameRows(filtered.result, reference.result);
  ExpectSameTrace(filtered.trace, reference.trace);
}

/// The default JoinSpec::filter: the full stack with no caller order.
join::ApproxFilterOptions DefaultFilter() { return join::JoinSpec().filter; }

void ExpectParity(const ReferenceRun& actual, const ReferenceRun& expected) {
  EXPECT_EQ(actual.steps, expected.steps);
  EXPECT_EQ(actual.pairs, expected.pairs);
  EXPECT_EQ(actual.transitions, expected.transitions);
  ExpectSameRows(actual.result, expected.result);
  ExpectSameTrace(actual.trace, expected.trace);
}

/// Runs `options_for(batch_size)` unfiltered (tuple-at-a-time) as the
/// reference, then with the default filter options at batch sizes
/// {1, 7, 256} on the single-threaded engine and at 1, 2 and 4 shards.
template <typename OptionsFor>
void ExpectDefaultOptionsMatchUnfiltered(const datagen::TestCase& tc,
                                         OptionsFor options_for) {
  const ReferenceRun reference = RunAdaptive(tc, options_for(1));
  ASSERT_GT(reference.pairs, 0u);
  ASSERT_EQ(reference.order, nullptr);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    AdaptiveJoinOptions options = options_for(batch_size);
    options.join.spec.filter = DefaultFilter();
    {
      SCOPED_TRACE(testing::Message()
                   << "single-threaded batch_size=" << batch_size);
      const ReferenceRun run = RunAdaptive(tc, options);
      ASSERT_NE(run.order, nullptr);
      ExpectParity(run, reference);
    }
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size
                                      << " shards=" << shards);
      const ReferenceRun run = RunParallel(tc, options, shards);
      ASSERT_NE(run.order, nullptr);
      ExpectParity(run, reference);
    }
  }
}

TEST(FilterParityTest, DefaultOptionsMatchUnfilteredAcrossBatchesAndShards) {
  ASSERT_TRUE(DefaultFilter().any());
  ASSERT_EQ(DefaultFilter().gram_order, nullptr);
  const datagen::TestCase tc = PaperCase();
  ASSERT_GT(RunAdaptive(tc, BaseOptions(tc)).transitions, 0u);
  ExpectDefaultOptionsMatchUnfiltered(tc, [&tc](size_t batch_size) {
    return BaseOptions(tc, batch_size);
  });
}

TEST(FilterParityTest, DefaultOptionsMatchUnfilteredPinnedApproximate) {
  // Both inputs probe approximately from step 0, so the first q-gram
  // insert is the first stored tuple: the order is frozen before any
  // tuple is stored, from the rows pulled so far.
  const datagen::TestCase tc = PaperCase();
  ExpectDefaultOptionsMatchUnfiltered(tc, [&tc](size_t batch_size) {
    AdaptiveJoinOptions options = BaseOptions(tc, batch_size);
    options.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    options.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
    return options;
  });
}

}  // namespace
}  // namespace aqp
