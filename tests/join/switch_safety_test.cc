// State-transfer safety (§2.1): switching operators at quiescent points
// must never lose index contents — after any switch sequence, a caught-
// up index is identical to one built fresh over the same store.

#include <gtest/gtest.h>

#include "common/random.h"
#include "join/hybrid_core.h"

namespace aqp {
namespace join {
namespace {

using exec::Side;
using storage::Tuple;
using storage::TupleId;
using storage::Value;

JoinSpec Spec() {
  JoinSpec spec;
  spec.sim_threshold = 0.8;
  // The unfiltered (plain-posting) layout, explicitly: the fresh index
  // the caught-up one is compared against posts every gram.
  spec.filter = ApproxFilterOptions{};
  return spec;
}

std::string RandomLocation(Rng* rng) {
  return "LOC " + rng->RandomString(8, "ABCDEFGH") + " " +
         rng->RandomString(10, "LMNOPQRS");
}

class SwitchSafetyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SwitchSafetyTest, CaughtUpIndexEqualsFreshIndex) {
  Rng rng(GetParam());
  HybridJoinCore core(Spec());
  // Feed tuples with random interleaving and random mode switches.
  for (int step = 0; step < 300; ++step) {
    const Side side = rng.Bernoulli(0.5) ? Side::kLeft : Side::kRight;
    core.ProcessTuple(side, Tuple{Value(RandomLocation(&rng))});
    if (rng.Bernoulli(0.05)) {
      core.SetProbeMode(side, rng.Bernoulli(0.5) ? ProbeMode::kExact
                                                 : ProbeMode::kApproximate);
    }
  }
  // Force everything live, then compare against fresh builds.
  core.SetProbeMode(Side::kLeft, ProbeMode::kApproximate);
  core.SetProbeMode(Side::kRight, ProbeMode::kApproximate);
  core.SetProbeMode(Side::kLeft, ProbeMode::kExact);
  core.SetProbeMode(Side::kRight, ProbeMode::kExact);

  for (Side side : {Side::kLeft, Side::kRight}) {
    const storage::TupleStore& store = core.store(side);
    ASSERT_EQ(core.exact_index(side).watermark(), store.size());
    ASSERT_EQ(core.qgram_index(side).watermark(), store.size());

    ExactIndex fresh_exact;
    fresh_exact.CatchUpWith(store);
    QGramIndex fresh_qgrams(Spec().qgram);
    fresh_qgrams.CatchUpWith(store);

    EXPECT_EQ(core.exact_index(side).distinct_keys(),
              fresh_exact.distinct_keys());
    EXPECT_EQ(core.qgram_index(side).distinct_grams(),
              fresh_qgrams.distinct_grams());
    for (size_t i = 0; i < store.size(); ++i) {
      const auto id = static_cast<TupleId>(i);
      // Exact buckets identical.
      const auto a = core.exact_index(side).Lookup(store.JoinKey(id));
      const auto b = fresh_exact.Lookup(store.JoinKey(id));
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(a, b);
      // Gram sets identical.
      EXPECT_EQ(core.qgram_index(side).GramSetOf(id),
                fresh_qgrams.GramSetOf(id));
    }
  }
}

TEST_P(SwitchSafetyTest, ExactMatchesNeverLostBySwitching) {
  // Pairs that match exactly are found regardless of the mode at probe
  // time (equality implies similarity 1 >= any threshold <= 1): the
  // hybrid result must contain every all-exact pair.
  Rng rng(GetParam() ^ 0xdead);
  // A pool with plenty of duplicates so exact pairs are common.
  std::vector<std::string> pool;
  for (int i = 0; i < 12; ++i) pool.push_back(RandomLocation(&rng));

  HybridJoinCore hybrid(Spec());
  HybridJoinCore exact_only(Spec());
  std::vector<std::pair<Side, std::string>> feed;
  for (int step = 0; step < 200; ++step) {
    feed.emplace_back(rng.Bernoulli(0.5) ? Side::kLeft : Side::kRight,
                      pool[rng.Index(pool.size())]);
  }
  size_t hybrid_exact_pairs = 0;
  for (const auto& [side, value] : feed) {
    if (rng.Bernoulli(0.1)) {
      hybrid.SetProbeMode(side, rng.Bernoulli(0.5)
                                    ? ProbeMode::kExact
                                    : ProbeMode::kApproximate);
    }
    for (const JoinMatch& m : hybrid.ProcessTuple(side, Tuple{Value(value)})) {
      if (m.kind == MatchKind::kExact) ++hybrid_exact_pairs;
    }
    exact_only.ProcessTuple(side, Tuple{Value(value)});
  }
  EXPECT_GE(hybrid_exact_pairs, exact_only.pairs_emitted());
  EXPECT_GE(hybrid.pairs_emitted(), exact_only.pairs_emitted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchSafetyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace join
}  // namespace aqp
