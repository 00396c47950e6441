// Self-tests of the benchmark's own arithmetic: the percentile rule,
// recall and precision on a hand-built linkage, and span self time on
// nested spans. run.py runs this before every measurement; a failure
// stops the benchmark.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  Expect(Near(perfbench::Median({3, 1, 2}), 2.0), "median of 3 samples");
  Expect(Near(perfbench::Median({4, 1, 2, 3}), 2.5), "median of 4 samples");
  Expect(Near(perfbench::Quantile({0, 10}, 0.95), 9.5), "interpolated p95");
  Expect(Near(perfbench::Quantile({}, 0.5), 0.0), "empty sample");
}

void TestPercentileRule() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::SamplesBeyond;
  Expect(SamplesBeyond(200, 95.0) == 10, "200 samples: 10 beyond p95");
  Expect(SamplesBeyond(199, 95.0) == 9, "199 samples: 9 beyond p95");
  Expect(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  auto samples = [](size_t n) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  Expect(!HighestSupportedPercentile(samples(19)).has_value(),
         "19 samples support no percentile");
  Expect(HighestSupportedPercentile(samples(20))->percentile == 50.0,
         "20 samples support the median only");
  Expect(HighestSupportedPercentile(samples(100))->percentile == 90.0,
         "100 samples support p90");
  Expect(HighestSupportedPercentile(samples(199))->percentile == 90.0,
         "199 samples do not support p95");
  Expect(HighestSupportedPercentile(samples(200))->percentile == 95.0,
         "200 samples support p95");
  Expect(HighestSupportedPercentile(samples(1000))->percentile == 99.0,
         "1000 samples support p99");
  Expect(HighestSupportedPercentile(samples(10000))->percentile == 99.9,
         "10000 samples support p99.9");
}

void TestLinkQuality() {
  // Four children; child i's true parent is 10 + i.
  const std::vector<size_t> truth = {10, 11, 12, 13};
  // Child 0 linked twice to its parent, child 1 linked to a wrong
  // parent, child 2 linked correctly, child 3 missed.
  const std::vector<perfbench::LinkPair> pairs = {
      {0, 10}, {1, 99}, {2, 12}, {0, 10}};
  const perfbench::LinkQuality all =
      perfbench::ScoreLinkage(pairs, pairs.size(), truth);
  Expect(all.emitted == 4 && all.correct == 3, "pair counts");
  Expect(all.linked_children == 2, "distinct children linked");
  Expect(Near(all.recall(), 0.5), "recall = 2 of 4 children");
  Expect(Near(all.precision(), 0.75), "precision = 3 of 4 pairs");
  const perfbench::LinkQuality prefix = perfbench::ScoreLinkage(pairs, 2, truth);
  Expect(Near(prefix.recall(), 0.25) && Near(prefix.precision(), 0.5),
         "a deadline prefix scores only its own pairs");
  const perfbench::LinkQuality bad =
      perfbench::ScoreLinkage({{7, 10}, {-1, 3}}, 2, truth);
  Expect(bad.out_of_range == 2 && bad.correct == 0, "ids outside the input");
  Expect(Near(perfbench::ScoreLinkage({}, 0, truth).precision(), 1.0),
         "an empty answer claims nothing false");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100] with children A [10,30] and B [20,50] (overlapping)
  // and C [60,70]; A has a grandchild [12,18]; D [200,210] is a second
  // root.
  std::vector<Span> spans(6);
  auto set = [&spans](size_t i, uint32_t parent, const char* name,
                      int64_t start, int64_t end) {
    spans[i].id = static_cast<uint32_t>(i + 1);
    spans[i].parent = parent;
    spans[i].name = name;
    spans[i].start_ns = start;
    spans[i].end_ns = end;
  };
  set(0, 0, "bench/job", 0, 100);
  set(1, 1, "exec.parallel/NextMatchRefs", 10, 30);
  set(2, 1, "exec/MaterializeRefInto", 20, 50);
  set(3, 1, "exec.parallel/NextMatchRefs", 60, 70);
  set(4, 2, "service/Wait", 12, 18);
  set(5, 0, "bench/job", 200, 210);
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time subtracts the union");
  Expect(self[1] == 20 - 6, "child self time subtracts its own child");
  Expect(self[2] == 30 && self[3] == 10 && self[4] == 6, "leaf self time");
  const auto by_layer = perfbench::SelfSecondsByLayer(spans);
  Expect(Near(by_layer.at("bench"), 60e-9), "bench layer self time");
  Expect(Near(by_layer.at("exec.parallel"), 24e-9), "layer is the prefix");
  Expect(Near(perfbench::UncoveredShare(spans, 0, 300), 190.0 / 300.0),
         "uncovered share counts root spans only");

  perfbench::Tracer off(false);
  Expect(off.Begin("bench/x", 0, 1) == 0 && off.spans().empty(),
         "a disabled tracer records nothing");
  perfbench::Tracer on(true);
  const uint32_t outer = on.Begin("bench/x", 0, 1);
  { perfbench::ScopedSpan inner(&on, "exec/y", outer, 1); }
  on.End(outer);
  const std::vector<Span> recorded = on.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == outer &&
             recorded[1].start_ns >= recorded[0].start_ns &&
             recorded[1].end_ns <= recorded[0].end_ns,
         "recorded spans nest");
}

}  // namespace

int main() {
  TestQuantiles();
  TestPercentileRule();
  TestLinkQuality();
  TestSelfTime();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
