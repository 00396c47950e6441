#include "join/hybrid_core.h"

#include <gtest/gtest.h>

#include <string>

namespace aqp {
namespace join {
namespace {

using exec::Side;
using storage::Tuple;
using storage::Value;

JoinSpec Spec(double threshold = 0.8) {
  JoinSpec spec;
  spec.sim_threshold = threshold;
  return spec;
}

Tuple T(const std::string& s) { return Tuple{Value(s)}; }

TEST(HybridCoreTest, StartsExactBothSides) {
  HybridJoinCore core(Spec());
  EXPECT_EQ(core.probe_mode(Side::kLeft), ProbeMode::kExact);
  EXPECT_EQ(core.probe_mode(Side::kRight), ProbeMode::kExact);
}

TEST(HybridCoreTest, ExactModeMatchesEqualKeys) {
  HybridJoinCore core(Spec());
  EXPECT_TRUE(core.ProcessTuple(Side::kLeft, T("A")).empty());
  const auto matches = core.ProcessTuple(Side::kRight, T("A"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].probe_side, Side::kRight);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  EXPECT_EQ(core.pairs_emitted(), 1u);
}

TEST(HybridCoreTest, ExactModeMissesVariants) {
  HybridJoinCore core(Spec());
  core.ProcessTuple(Side::kLeft, T("SANTA CRISTINA VALGARDENA"));
  const auto matches =
      core.ProcessTuple(Side::kRight, T("SANTA CRISTINx VALGARDENA"));
  EXPECT_TRUE(matches.empty());
}

TEST(HybridCoreTest, ApproximateModeCatchesVariants) {
  HybridJoinCore core(Spec(0.8));
  core.SetProbeMode(Side::kLeft, ProbeMode::kApproximate);
  core.SetProbeMode(Side::kRight, ProbeMode::kApproximate);
  core.ProcessTuple(Side::kLeft, T("SANTA CRISTINA VALGARDENA"));
  const auto matches =
      core.ProcessTuple(Side::kRight, T("SANTA CRISTINx VALGARDENA"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].kind, MatchKind::kApproximate);
}

TEST(HybridCoreTest, SwitchCatchUpCountsPendingTuplesOnly) {
  HybridJoinCore core(Spec());
  // 3 left tuples while right probes exactly: left qgram index lags.
  core.ProcessTuple(Side::kLeft, T("AAA BBB CCC"));
  core.ProcessTuple(Side::kLeft, T("DDD EEE FFF"));
  core.ProcessTuple(Side::kLeft, T("GGG HHH III"));
  // Switching the right side to approximate must index all 3 left
  // tuples into the q-gram index.
  EXPECT_EQ(core.SetProbeMode(Side::kRight, ProbeMode::kApproximate), 3u);
  EXPECT_EQ(core.catchup_tuples(), 3u);
  // Switching again is free.
  EXPECT_EQ(core.SetProbeMode(Side::kRight, ProbeMode::kApproximate), 0u);
  // Back to exact: the left exact index was live the whole time... it
  // was live only while right was exact; after the switch it lags by 0
  // because no left tuples arrived since.
  EXPECT_EQ(core.SetProbeMode(Side::kRight, ProbeMode::kExact), 0u);
}

TEST(HybridCoreTest, SwitchCostProportionalToDelta) {
  HybridJoinCore core(Spec());
  core.ProcessTuple(Side::kLeft, T("ONE"));
  EXPECT_EQ(core.SetProbeMode(Side::kRight, ProbeMode::kApproximate), 1u);
  core.ProcessTuple(Side::kLeft, T("TWO"));
  core.ProcessTuple(Side::kLeft, T("THREE"));
  // Exact index on the left lagged while right was approximate: only
  // the 2 new tuples need inserting.
  EXPECT_EQ(core.SetProbeMode(Side::kRight, ProbeMode::kExact), 2u);
}

TEST(HybridCoreTest, HybridStateUsesDifferentIndexesPerSide) {
  // lap/rex: left reads probe approximately, right reads exactly.
  HybridJoinCore core(Spec(0.8));
  core.SetProbeMode(Side::kLeft, ProbeMode::kApproximate);
  // Store a right tuple; maintains right qgram index (left probes it).
  core.ProcessTuple(Side::kRight, T("SANTA CRISTINA VALGARDENA"));
  // A left variant probing approximately finds it.
  auto matches =
      core.ProcessTuple(Side::kLeft, T("SANTA CRISTINx VALGARDENA"));
  ASSERT_EQ(matches.size(), 1u);
  // A right variant probing exactly misses the stored left variant.
  matches = core.ProcessTuple(Side::kRight, T("SANTA CRISTINy VALGARDENA"));
  EXPECT_TRUE(matches.empty());
}

TEST(HybridCoreTest, ExactFlagsSetOnBothSides) {
  HybridJoinCore core(Spec());
  core.ProcessTuple(Side::kLeft, T("K"));
  core.ProcessTuple(Side::kRight, T("K"));
  EXPECT_TRUE(core.store(Side::kLeft).MatchedExactly(0));
  EXPECT_TRUE(core.store(Side::kRight).MatchedExactly(0));
}

TEST(HybridCoreTest, ApproxMatchDoesNotSetExactFlags) {
  HybridJoinCore core(Spec(0.8));
  core.SetProbeMode(Side::kLeft, ProbeMode::kApproximate);
  core.SetProbeMode(Side::kRight, ProbeMode::kApproximate);
  core.ProcessTuple(Side::kLeft, T("SANTA CRISTINA VALGARDENA"));
  core.ProcessTuple(Side::kRight, T("SANTA CRISTINx VALGARDENA"));
  EXPECT_FALSE(core.store(Side::kLeft).MatchedExactly(0));
  EXPECT_FALSE(core.store(Side::kRight).MatchedExactly(0));
  EXPECT_TRUE(core.store(Side::kLeft).MatchedAny(0));
  EXPECT_TRUE(core.store(Side::kRight).MatchedAny(0));
}

TEST(HybridCoreTest, DistinctMatchedCountsOncePerTuple) {
  HybridJoinCore core(Spec());
  core.ProcessTuple(Side::kLeft, T("K"));
  core.ProcessTuple(Side::kRight, T("K"));
  core.ProcessTuple(Side::kRight, T("K"));  // second pair, same left tuple
  EXPECT_EQ(core.distinct_matched(Side::kLeft), 1u);
  EXPECT_EQ(core.distinct_matched(Side::kRight), 2u);
  EXPECT_EQ(core.pairs_emitted(), 2u);
}

TEST(HybridCoreTest, NoMatchesAcrossUnswitchedLag) {
  // Tuples inserted while an index lags must be found after catch-up.
  HybridJoinCore core(Spec(0.8));
  core.ProcessTuple(Side::kLeft, T("SANTA CRISTINA VALGARDENA"));
  // Right side probes exactly: variant missed.
  EXPECT_TRUE(
      core.ProcessTuple(Side::kRight, T("SANTA CRISTINx VALGARDENA"))
          .empty());
  // Switch right reads to approximate; the left q-gram index catches
  // up, so a *new* right variant now matches the old left tuple.
  core.SetProbeMode(Side::kRight, ProbeMode::kApproximate);
  const auto matches =
      core.ProcessTuple(Side::kRight, T("SANTA CRISTINz VALGARDENA"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 0u);
}

TEST(HybridCoreTest, MemoryUsageIncludesAllStructures) {
  HybridJoinCore core(Spec());
  const size_t before = core.ApproximateMemoryUsage();
  for (int i = 0; i < 32; ++i) {
    core.ProcessTuple(Side::kLeft, T("LOCATION " + std::to_string(i)));
    core.ProcessTuple(Side::kRight, T("LOCATION " + std::to_string(i)));
  }
  EXPECT_GT(core.ApproximateMemoryUsage(), before);
}

TEST(HybridCoreTest, MemoryUsageCountsProbeScratch) {
  // An approximate probe sizes the dense T(t) to the probed index: one
  // counter per stored tuple of the other side, which the footprint
  // must include. The probing store is primed first, so the measured
  // step adds only one tuple's worth of store and index bytes.
  constexpr size_t kStored = 4000;
  HybridJoinCore core(Spec());
  for (size_t i = 0; i < kStored; ++i) {
    core.ProcessTuple(Side::kRight, T("STORED " + std::to_string(i)));
  }
  core.ProcessTuple(Side::kLeft, T("PRIMER"));
  core.SetProbeMode(Side::kLeft, ProbeMode::kApproximate);
  const size_t before = core.ApproximateMemoryUsage();
  core.ProcessTuple(Side::kLeft, T("PROBE"));
  EXPECT_GE(core.ApproximateMemoryUsage(), before + kStored * sizeof(uint32_t));
}

}  // namespace
}  // namespace join
}  // namespace aqp
