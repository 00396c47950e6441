#include "join/probe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "join/filter.h"
#include "join/hybrid_core.h"
#include "text/gram_order.h"

namespace aqp {
namespace join {
namespace {

using storage::Tuple;
using storage::TupleId;
using storage::TupleStore;
using storage::Value;

JoinSpec Spec(double threshold = 0.8) {
  JoinSpec spec;
  spec.left_column = 0;
  spec.right_column = 0;
  spec.sim_threshold = threshold;
  // The unfiltered kernel, explicitly: the plain fixtures below and the
  // probe counters the tests assert belong to it.
  spec.filter = ApproxFilterOptions{};
  return spec;
}

struct Fixture {
  TupleStore store{0};
  ExactIndex exact;
  QGramIndex qgrams{text::QGramOptions{}};

  void Add(const std::string& s) {
    store.Add(Tuple{Value(s)});
    exact.CatchUpWith(store);
    qgrams.CatchUpWith(store);
  }
};

TEST(ProbeExactTest, FindsEqualStrings) {
  Fixture f;
  f.Add("SANTA CRISTINA VALGARDENA IN COLLE");
  f.Add("MONTE BIANCO SUPERIORE DEL FRIULI");
  f.Add("SANTA CRISTINA VALGARDENA IN COLLE");
  const auto matches = ProbeExact(
      f.exact, "SANTA CRISTINA VALGARDENA IN COLLE", exec::Side::kLeft, 99);
  ASSERT_EQ(matches.size(), 2u);
  for (const JoinMatch& m : matches) {
    EXPECT_EQ(m.kind, MatchKind::kExact);
    EXPECT_DOUBLE_EQ(m.similarity, 1.0);
    EXPECT_EQ(m.probe_id, 99u);
    EXPECT_EQ(m.probe_side, exec::Side::kLeft);
  }
}

TEST(ProbeExactTest, MissYieldsEmpty) {
  Fixture f;
  f.Add("SOMETHING");
  EXPECT_TRUE(ProbeExact(f.exact, "ELSE", exec::Side::kRight, 0).empty());
}

TEST(ProbeApproximateTest, FindsVariantAboveThreshold) {
  Fixture f;
  const std::string original = "TAA BZ SANTA CRISTINA VALGARDENA TERME";
  f.Add(original);
  std::string variant = original;
  variant[12] = 'x';
  ApproxProbeStats stats;
  const auto matches =
      ProbeApproximate(f.qgrams, f.store, variant, Spec(0.8),
                       exec::Side::kLeft, 7, ApproxProbeOptions{}, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 0u);
  EXPECT_EQ(matches[0].kind, MatchKind::kApproximate);
  EXPECT_GE(matches[0].similarity, 0.8);
  EXPECT_LT(matches[0].similarity, 1.0);
  EXPECT_GT(stats.grams, 0u);
  EXPECT_GE(stats.candidates, 1u);
  EXPECT_EQ(stats.matches, 1u);
}

TEST(ProbeApproximateTest, EqualStringFlaggedExact) {
  Fixture f;
  const std::string s = "MONTE ROSA SUPERIORE DEGLI ULIVI";
  f.Add(s);
  const auto matches =
      ProbeApproximate(f.qgrams, f.store, s, Spec(0.8), exec::Side::kRight,
                       3, ApproxProbeOptions{}, nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  EXPECT_DOUBLE_EQ(matches[0].similarity, 1.0);
}

TEST(ProbeApproximateTest, DissimilarStringRejected) {
  Fixture f;
  f.Add("TAA BZ SANTA CRISTINA VALGARDENA");
  const auto matches = ProbeApproximate(
      f.qgrams, f.store, "PUG BA COMPLETELY DIFFERENT PLACE", Spec(0.8),
      exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
  EXPECT_TRUE(matches.empty());
}

TEST(ProbeApproximateTest, ThresholdIsInclusiveBoundary) {
  Fixture f;
  f.Add("ABCD");
  // q(ABCD) vs q(ABCE), padded q=3: sets of 6 grams each, overlap 4
  // (\1\1A, \1AB, ABC + one of the distinct tails...). Compute the true
  // Jaccard and assert behaviour exactly at it.
  const text::GramSet a =
      text::GramSet::Of("ABCD", text::QGramOptions{});
  const text::GramSet b =
      text::GramSet::Of("ABCE", text::QGramOptions{});
  const double sim = text::Jaccard(a, b);
  auto at = ProbeApproximate(f.qgrams, f.store, "ABCE", Spec(sim),
                             exec::Side::kLeft, 0, ApproxProbeOptions{},
                             nullptr);
  EXPECT_EQ(at.size(), 1u);
  auto above = ProbeApproximate(f.qgrams, f.store, "ABCE", Spec(sim + 1e-9),
                                exec::Side::kLeft, 0, ApproxProbeOptions{},
                                nullptr);
  EXPECT_TRUE(above.empty());
}

TEST(ProbeApproximateTest, OptimizationOnAndOffAgree) {
  Fixture f;
  const std::vector<std::string> pool = {
      "TAA BZ SANTA CRISTINA VALGARDENA", "TAA BZ SANTA CRISTINx VALGARDENA",
      "LOM MI VILLA BORGHESE SUL NAVIGLIO", "VEN VE CASTEL NUOVO DEL MONTE",
      "TAA BZ SANTA CRISTINA VALGARDENo", "PIE TO MONTE VERDE SUPERIORE"};
  for (const auto& s : pool) f.Add(s);
  for (double threshold : {0.5, 0.7, 0.85, 0.95}) {
    for (const auto& probe : pool) {
      ApproxProbeOptions with;
      ApproxProbeOptions without;
      without.insert_phase_optimization = false;
      without.rare_grams_first = false;
      auto a = ProbeApproximate(f.qgrams, f.store, probe, Spec(threshold),
                                exec::Side::kLeft, 0, with, nullptr);
      auto b = ProbeApproximate(f.qgrams, f.store, probe, Spec(threshold),
                                exec::Side::kLeft, 0, without, nullptr);
      ASSERT_EQ(a.size(), b.size()) << probe << " @ " << threshold;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stored_id, b[i].stored_id);
        EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
      }
    }
  }
}

TEST(ProbeApproximateTest, EmptyProbeMatchesOnlyEmptyStored) {
  text::QGramOptions unpadded;
  unpadded.pad = false;
  JoinSpec spec = Spec(0.8);
  spec.qgram = unpadded;
  TupleStore store(0);
  QGramIndex index(unpadded);
  store.Add(Tuple{Value("AB")});  // gram-less
  store.Add(Tuple{Value("ABCDEF")});
  index.CatchUpWith(store);
  auto matches = ProbeApproximate(index, store, "AB", spec, exec::Side::kLeft,
                                  9, ApproxProbeOptions{}, nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 0u);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  auto misses = ProbeApproximate(index, store, "XY", spec, exec::Side::kLeft,
                                 9, ApproxProbeOptions{}, nullptr);
  EXPECT_TRUE(misses.empty());
}

TEST(ProbeApproximateTest, ResultsSortedByStoredId) {
  Fixture f;
  f.Add("SANTA CRISTINA VALGARDENA AAA");
  f.Add("SANTA CRISTINA VALGARDENA BBB");
  f.Add("SANTA CRISTINA VALGARDENA CCC");
  auto matches = ProbeApproximate(
      f.qgrams, f.store, "SANTA CRISTINA VALGARDENA ABC", Spec(0.6),
      exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
  ASSERT_GE(matches.size(), 2u);
  EXPECT_TRUE(std::is_sorted(matches.begin(), matches.end(),
                             [](const JoinMatch& a, const JoinMatch& b) {
                               return a.stored_id < b.stored_id;
                             }));
}

/// All eight filter combinations, in bench/label order.
std::vector<ApproxFilterOptions> AllFilterCombinations() {
  std::vector<ApproxFilterOptions> combos;
  for (int mask = 0; mask < 8; ++mask) {
    ApproxFilterOptions f;
    f.length = (mask & 1) != 0;
    f.prefix = (mask & 2) != 0;
    f.positional = (mask & 4) != 0;
    combos.push_back(f);
  }
  return combos;
}

/// A store + index built with the given filter configuration, loaded
/// with the same pool the plain fixture uses.
struct FilteredFixture {
  TupleStore store{0};
  QGramIndex qgrams;

  FilteredFixture(const ApproxFilterOptions& filter, double threshold)
      : qgrams(filter.any()
                   ? QGramIndex(text::QGramOptions{}, filter,
                                text::SimilarityMeasure::kJaccard, threshold)
                   : QGramIndex(text::QGramOptions{})) {}

  void Add(const std::string& s) {
    store.Add(Tuple{Value(s)});
    qgrams.CatchUpWith(store);
  }
};

std::vector<std::string> FilterTestPool() {
  return {"TAA BZ SANTA CRISTINA VALGARDENA",
          "TAA BZ SANTA CRISTINx VALGARDENA",
          "LOM MI VILLA BORGHESE SUL NAVIGLIO",
          "VEN VE CASTEL NUOVO DEL MONTE",
          "TAA BZ SANTA CRISTINA VALGARDENo",
          "PIE TO MONTE VERDE SUPERIORE",
          "SANTA CRISTINA",  // far shorter: exercises the length band
          "TAA BZ SANTA CRISTINA VALGARDENA EXTENDED WITH A LONG TAIL",
          "ABCD", "ABCE",    // threshold-boundary pair
          ""};
}

TEST(ProbeFilteredTest, AllCombinationsMatchUnfilteredKernel) {
  const auto pool = FilterTestPool();
  for (double threshold : {0.5, 0.7, 0.85, 0.95}) {
    Fixture plain;
    for (const auto& s : pool) plain.Add(s);
    for (const ApproxFilterOptions& filter : AllFilterCombinations()) {
      FilteredFixture filtered(filter, threshold);
      for (const auto& s : pool) filtered.Add(s);
      JoinSpec spec = Spec(threshold);
      spec.filter = filter;
      for (const auto& probe : pool) {
        const auto expected =
            ProbeApproximate(plain.qgrams, plain.store, probe,
                             Spec(threshold), exec::Side::kLeft, 0,
                             ApproxProbeOptions{}, nullptr);
        ApproxProbeStats stats;
        const auto actual =
            ProbeApproximate(filtered.qgrams, filtered.store, probe, spec,
                             exec::Side::kLeft, 0, ApproxProbeOptions{},
                             &stats);
        ASSERT_EQ(actual.size(), expected.size())
            << "filter=" << filter.Label() << " probe=\"" << probe
            << "\" @ " << threshold;
        for (size_t i = 0; i < actual.size(); ++i) {
          EXPECT_EQ(actual[i].stored_id, expected[i].stored_id);
          // Bitwise-equal similarity, not just approximately equal —
          // byte-identical output is the exactness contract.
          EXPECT_EQ(actual[i].similarity, expected[i].similarity)
              << "filter=" << filter.Label() << " probe=\"" << probe << "\"";
          EXPECT_EQ(actual[i].kind, expected[i].kind);
        }
        EXPECT_EQ(stats.matches, expected.size());
      }
    }
  }
}

TEST(ProbeFilteredTest, SampledGramOrderPreservesResults) {
  const auto pool = FilterTestPool();
  Fixture plain;
  for (const auto& s : pool) plain.Add(s);
  auto order = std::make_shared<text::GramOrder>();
  for (const auto& s : pool) order->AddSample(s, text::QGramOptions{});
  ApproxFilterOptions filter;
  filter.length = filter.prefix = filter.positional = true;
  filter.gram_order = order;
  FilteredFixture filtered(filter, 0.8);
  for (const auto& s : pool) filtered.Add(s);
  JoinSpec spec = Spec(0.8);
  spec.filter = filter;
  for (const auto& probe : pool) {
    const auto expected =
        ProbeApproximate(plain.qgrams, plain.store, probe, Spec(0.8),
                         exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
    const auto actual =
        ProbeApproximate(filtered.qgrams, filtered.store, probe, spec,
                         exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
    ASSERT_EQ(actual.size(), expected.size()) << probe;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].stored_id, expected[i].stored_id);
      EXPECT_EQ(actual[i].similarity, expected[i].similarity);
      EXPECT_EQ(actual[i].kind, expected[i].kind);
    }
  }
}

TEST(ProbeFilteredTest, FiltersActuallyPrune) {
  // A corpus with one near-duplicate and several length-incompatible /
  // position-incompatible neighbours: the filters must report pruning
  // work, and the candidate count must drop versus unfiltered.
  const std::string base = "TAA BZ SANTA CRISTINA VALGARDENA TERME";
  Fixture plain;
  FilteredFixture filtered(
      [] {
        ApproxFilterOptions f;
        f.length = f.prefix = f.positional = true;
        return f;
      }(),
      0.85);
  std::vector<std::string> pool = {base, base + " DI SOPRA DEL COLLE",
                                   "SANTA", "CRISTINA VAL",
                                   base.substr(0, 14)};
  for (const auto& s : pool) {
    plain.Add(s);
    filtered.Add(s);
  }
  std::string probe = base;
  probe[10] = 'x';
  ApproxProbeStats unfiltered_stats;
  const auto expected =
      ProbeApproximate(plain.qgrams, plain.store, probe, Spec(0.85),
                       exec::Side::kLeft, 0, ApproxProbeOptions{},
                       &unfiltered_stats);
  JoinSpec spec = Spec(0.85);
  spec.filter.length = spec.filter.prefix = spec.filter.positional = true;
  ApproxProbeStats stats;
  const auto actual =
      ProbeApproximate(filtered.qgrams, filtered.store, probe, spec,
                       exec::Side::kLeft, 0, ApproxProbeOptions{}, &stats);
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.size(), 1u);
  EXPECT_GT(stats.length_skipped, 0u);
  EXPECT_LT(stats.candidates, unfiltered_stats.candidates);
}

/// The paper-style test case the scratch and golden tests run on.
datagen::TestCase GoldenCase() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.perturb_parent = true;
  options.variant_rate = 0.10;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.seed = 20090326;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

bool AllZero(const std::vector<uint32_t>& counters) {
  return std::all_of(counters.begin(), counters.end(),
                     [](uint32_t c) { return c == 0; });
}

TEST(ProbeScratchTest, CounterTableIsCleanAfterEveryProbe) {
  // T(t) is a dense table the probe resets itself: after every probe,
  // including ones whose every posting the positional filter dropped,
  // every counter is zero; the table covers the largest index probed
  // so far and never grows past it. Under prefix filtering the touched
  // list holds candidates only (no position-rejected entries), each
  // once, and verification read every one of them.
  const datagen::TestCase tc = GoldenCase();
  JoinSpec spec = Spec(0.85);
  spec.filter = ApproxFilterOptions::Full();
  GramOrderSampler sampler(spec.qgram);
  for (size_t i = 0; i < tc.parent.size(); ++i) {
    sampler.Add(exec::Side::kRight,
                tc.parent.row(i)[datagen::kAtlasLocationColumn].AsString());
  }
  spec.filter.gram_order = sampler.Finish();
  TupleStore store(datagen::kAtlasLocationColumn, spec.qgram);
  QGramIndex index(spec.qgram, spec.filter, spec.measure, spec.sim_threshold);

  ApproxProbeScratch scratch;
  std::vector<JoinMatch> out;
  size_t rejected_only_probes = 0;
  for (size_t i = 0; i < tc.child.size(); ++i) {
    if (i < tc.parent.size()) {
      store.Add(tc.parent.row(i));
      index.CatchUpWith(store);
    }
    const std::string key =
        tc.child.row(i)[datagen::kAccidentsLocationColumn].AsString();
    ApproxProbeStats stats;
    ProbeApproximateInto(index, store, key, text::GramSet::Of(key, spec.qgram),
                         spec, exec::Side::kLeft, static_cast<TupleId>(i),
                         ApproxProbeOptions{}, &scratch, &stats, &out);
    if (stats.candidates == 0 && stats.position_rejected > 0) {
      ++rejected_only_probes;
    }
    ASSERT_TRUE(AllZero(scratch.counters)) << "after probe " << i;
    ASSERT_EQ(scratch.touched.size(), stats.candidates) << "probe " << i;
    ASSERT_EQ(stats.verified, stats.candidates) << "probe " << i;
    std::vector<TupleId> distinct = scratch.touched;
    std::sort(distinct.begin(), distinct.end());
    ASSERT_TRUE(std::adjacent_find(distinct.begin(), distinct.end()) ==
                distinct.end());
    ASSERT_EQ(scratch.counters.size(), index.watermark());
  }
  EXPECT_GT(rejected_only_probes, 0u);

  // The unfiltered kernel shares the table. Its widest probe (no
  // insert-phase optimization: every stem-sharing tuple becomes a
  // candidate) leaves it clean too, and probing a smaller index
  // afterwards neither shrinks nor grows it.
  Fixture wide;
  for (int i = 0; i < 1200; ++i) {
    wide.Add("SANTA CRISTINA VALGARDENA SHARED STEM " + std::to_string(i));
  }
  const JoinSpec plain_spec = Spec(0.99);
  const std::string stem = "SANTA CRISTINA VALGARDENA SHARED STEM";
  ApproxProbeOptions inflate;
  inflate.insert_phase_optimization = false;
  ApproxProbeStats wide_stats;
  ProbeApproximateInto(wide.qgrams, wide.store, stem,
                       text::GramSet::Of(stem, plain_spec.qgram), plain_spec,
                       exec::Side::kLeft, 0, inflate, &scratch, &wide_stats,
                       &out);
  EXPECT_EQ(wide_stats.candidates, 1200u);
  EXPECT_TRUE(AllZero(scratch.counters));
  EXPECT_EQ(scratch.touched.size(), wide_stats.candidates);
  EXPECT_EQ(scratch.counters.size(), 1200u);

  Fixture narrow;
  narrow.Add(stem);
  ProbeApproximateInto(narrow.qgrams, narrow.store, stem,
                       text::GramSet::Of(stem, plain_spec.qgram), plain_spec,
                       exec::Side::kLeft, 0, ApproxProbeOptions{}, &scratch,
                       nullptr, &out);
  EXPECT_TRUE(AllZero(scratch.counters));
  EXPECT_EQ(scratch.counters.size(), 1200u);
}

TEST(ProbeStatsTest, MergeAccumulates) {
  ApproxProbeStats a;
  a.grams = 5;
  a.matches = 1;
  ApproxProbeStats b;
  b.grams = 7;
  b.candidates = 3;
  a.MergeFrom(b);
  EXPECT_EQ(a.grams, 12u);
  EXPECT_EQ(a.candidates, 3u);
  EXPECT_EQ(a.matches, 1u);
}

TEST(ProbeGoldenTest, FilteredKernelCountersAreUnchanged) {
  // One fixed datagen case, probed approximately from both sides under
  // the full filter stack and a head-sampled gram order. The counters
  // are the filtered kernel's work; they were recorded from the
  // hash-map kernel, and a rewrite that only makes the same work
  // cheaper must reproduce every one of them.
  const datagen::TestCase tc = GoldenCase();
  JoinSpec spec;
  spec.left_column = datagen::kAccidentsLocationColumn;
  spec.right_column = datagen::kAtlasLocationColumn;
  spec.sim_threshold = 0.85;
  ASSERT_TRUE(spec.filter.length && spec.filter.prefix &&
              spec.filter.positional);

  GramOrderSampler sampler(spec.qgram);
  for (size_t i = 0; i < tc.child.size(); ++i) {
    sampler.Add(exec::Side::kLeft,
                tc.child.row(i)[spec.left_column].AsString());
  }
  for (size_t i = 0; i < tc.parent.size(); ++i) {
    sampler.Add(exec::Side::kRight,
                tc.parent.row(i)[spec.right_column].AsString());
  }
  HybridJoinCore core(spec);
  core.InstallGramOrder(sampler.Finish());
  core.SetProbeMode(exec::Side::kLeft, ProbeMode::kApproximate);
  core.SetProbeMode(exec::Side::kRight, ProbeMode::kApproximate);
  std::vector<JoinMatch> out;
  for (size_t i = 0; i < std::max(tc.child.size(), tc.parent.size());
       ++i) {
    if (i < tc.child.size()) {
      core.ProcessTupleInto(exec::Side::kLeft, tc.child.row(i), &out);
    }
    if (i < tc.parent.size()) {
      core.ProcessTupleInto(exec::Side::kRight, tc.parent.row(i), &out);
    }
  }

  const ApproxProbeStats& stats = core.approx_probe_stats();
  EXPECT_EQ(stats.grams, 52156u);
  EXPECT_EQ(stats.postings_scanned, 14663u);
  EXPECT_EQ(stats.candidates, 1618u);
  EXPECT_EQ(stats.verified, 1618u);
  EXPECT_EQ(stats.matches, 788u);
  EXPECT_EQ(stats.length_skipped, 3436u);
  // Postings the positional filter dropped, each failing posting
  // counted (the prefix-filtered kernel tests the bound before T(t) and
  // marks no rejected tuple); it counted each rejected tuple once, at
  // its first shared gram, as 4737 before.
  EXPECT_EQ(stats.position_rejected, 7518u);
  EXPECT_EQ(out.size(), stats.matches);
}

}  // namespace
}  // namespace join
}  // namespace aqp
