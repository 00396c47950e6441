// paper_mar: the paper's §4 cases, where approximate candidate
// generation, verification and catch-up do the work. Each job is one
// ParallelAdaptiveJoin run from Open to Close; its answer is scored
// against datagen's ground truth.

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/state.h"
#include "bench_math.h"
#include "common/macros.h"
#include "datagen/pattern.h"
#include "exec/interleave.h"
#include "exec/scan.h"
#include "join/probe.h"
#include "metrics/gain_cost.h"
#include "storage/column_batch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ap = aqp::exec::parallel;
using aqp::Result;
using aqp::Status;
using aqp::adaptive::ProcessorState;
using aqp::adaptive::StateIndex;

/// Output rows per drive call (NextColumnBatch capacity and
/// NextMatchRefs limit, so both drives pump alike).
constexpr size_t kRowsPerCall = 320;
/// Shards per job: with the coordinator thread, no more busy threads
/// than the host's 4 CPUs.
constexpr size_t kShards = 3;
/// Budgets of the deadline-limited answers whose mean recall is
/// deadline_recall, in join steps (input rows read, both sides): about
/// a quarter, a half and three quarters of a case's 18082 rows. A step
/// budget, like the service's hard_deadline_steps, prices the answer in
/// work rather than in time, so it reads the same on every run of a
/// seed however much CPU the host withheld.
constexpr uint64_t kDeadlineSteps[] = {4500, 9000, 13500};

/// One linkage job: a child and a parent source joined by the engine.
struct Job {
  std::string label;
  aqp::exec::Operator* child = nullptr;
  aqp::exec::Operator* parent = nullptr;
  uint64_t child_rows = 0;
  uint64_t parent_rows = 0;
  const std::vector<size_t>* true_parent = nullptr;
  ap::ParallelJoinOptions options;
};

/// What the set-up builds. Owns the sources the jobs borrow.
struct Inputs {
  std::vector<aqp::datagen::TestCase> cases;
  std::vector<std::unique_ptr<aqp::exec::Operator>> sources;
  std::vector<Job> jobs;
  double generate_s = 0.0;
};

/// The answer a caller with a hard deadline receives: the pairs the
/// engine had merged when the deadline passed (a strict prefix of the
/// full answer), and the completeness the engine reported for it.
struct DeadlineAnswer {
  uint64_t prefix = 0;
  double completeness = 1.0;
};

/// One job's outcome.
struct JobRun {
  Status status;
  double wall_s = 0.0;
  /// CPU time of the process from Open to Close.
  double cpu_s = 0.0;
  std::vector<LinkPair> pairs;
  uint64_t engine_pairs = 0;
  /// One per kDeadlineSteps entry.
  std::vector<DeadlineAnswer> deadline_answers;
};

/// Records a DeadlineAnswer as a drive passes each step budget.
/// Observed between drive calls (the published step count advances
/// when an epoch commits), so an answer is taken at most one output
/// batch late. Budgets the job outlived receive the full answer.
void ObserveDeadlines(const ap::ParallelAdaptiveJoin& join, bool finished,
                      std::vector<DeadlineAnswer>* out) {
  while (out->size() < std::size(kDeadlineSteps) &&
         (finished || join.steps() >= kDeadlineSteps[out->size()])) {
    out->push_back(
        DeadlineAnswer{join.pairs_emitted(), join.Completeness().ratio});
  }
}

/// Per-layer totals of the traced passes.
struct LayerTotals {
  double pump_s = 0.0;
  double materialize_s = 0.0;
  double source_parse_s = 0.0;
  uint64_t source_rows = 0;
  uint64_t epochs = 0;
  std::vector<double> epoch_s;
  double serial_route_s = 0.0;
  double overlap_route_s = 0.0;
  double stall_s = 0.0;
  uint64_t epochs_staged = 0;
  std::array<uint64_t, aqp::adaptive::kNumProcessorStates> steps{};
  std::array<double, aqp::adaptive::kNumProcessorStates> state_s{};
  uint64_t transitions = 0;
  uint64_t catchup_tuples = 0;
  aqp::join::ApproxProbeStats approx;
  uint64_t approx_probes = 0;
  uint64_t exact_pairs = 0;
  uint64_t approx_pairs = 0;
  double footprint_mb = 0.0;
  std::vector<double> completeness_gap;
};

/// Output column positions of the child and parent row ids.
struct IdColumns {
  size_t child = 0;
  size_t parent = 0;
};

Result<IdColumns> FindIdColumns(const aqp::storage::Schema& schema) {
  IdColumns cols;
  AQP_ASSIGN_OR_RETURN(cols.child, schema.RequireIndexOf("accident_id"));
  AQP_ASSIGN_OR_RETURN(cols.parent, schema.RequireIndexOf("municipality_id"));
  return cols;
}

void Harvest(const aqp::storage::ColumnBatch& batch, IdColumns cols,
             std::vector<LinkPair>* out) {
  for (size_t r = 0; r < batch.size(); ++r) {
    out->push_back(
        LinkPair{batch.Int64At(cols.child, r), batch.Int64At(cols.parent, r)});
  }
}

/// Timed drive: columnar (NextColumnBatch), no governor, no spans.
JobRun RunUntraced(const Job& job) {
  JobRun run;
  ap::ParallelAdaptiveJoin join(job.child, job.parent, job.options);
  aqp::storage::ColumnBatch batch(nullptr, kRowsPerCall);
  const int64_t start = NowNs();
  const int64_t start_cpu = CpuNs();
  run.status = join.Open();
  if (!run.status.ok()) return run;
  IdColumns cols;
  if (auto found = FindIdColumns(join.output_schema()); found.ok()) {
    cols = *found;
  } else {
    run.status = found.status();
  }
  while (run.status.ok()) {
    run.status = join.NextColumnBatch(&batch);
    if (!run.status.ok() || batch.empty()) break;
    Harvest(batch, cols, &run.pairs);
    ObserveDeadlines(join, false, &run.deadline_answers);
  }
  Status closed = join.Close();
  run.wall_s = Seconds(NowNs() - start);
  run.cpu_s = Seconds(CpuNs() - start_cpu);
  if (run.status.ok()) run.status = closed;
  run.engine_pairs = join.pairs_emitted();
  ObserveDeadlines(join, true, &run.deadline_answers);
  return run;
}

/// The coordinator's view at one epoch control point, as seen by the
/// benchmark's governor.
struct ControlPointMark {
  int64_t t_ns = 0;
  /// Benchmark time spent outside engine calls so far (subtracted from
  /// epoch intervals that straddle two drive calls).
  int64_t outside_ns = 0;
  uint64_t steps = 0;
  ProcessorState state = ProcessorState::kLexRex;
};

/// Folds one traced job's control points into the layer totals: epoch
/// durations, time per state, and approximate probes (replaying the
/// engine's public interleave schedule to learn which side each step
/// read).
void FoldEpochs(const Job& job, const std::vector<ControlPointMark>& marks,
                LayerTotals* layers) {
  aqp::exec::InterleaveScheduler schedule(job.options.base.join.interleave,
                                          job.child_rows, job.parent_rows);
  for (size_t k = 1; k < marks.size(); ++k) {
    const ControlPointMark& prev = marks[k - 1];
    const ControlPointMark& cur = marks[k];
    // The epoch between two control points runs in the state the
    // second one observes (the MAR loop acts after the governor).
    const double dur = Seconds((cur.t_ns - prev.t_ns) -
                               (cur.outside_ns - prev.outside_ns));
    layers->epoch_s.push_back(dur);
    layers->state_s[StateIndex(cur.state)] += dur;
    for (uint64_t step = prev.steps; step < cur.steps; ++step) {
      auto side = schedule.NextSide(
          schedule.reads(aqp::exec::Side::kLeft) >= job.child_rows,
          schedule.reads(aqp::exec::Side::kRight) >= job.parent_rows);
      if (!side) break;
      schedule.OnRead(*side);
      if (aqp::adaptive::ModeOf(cur.state, *side) ==
          aqp::join::ProbeMode::kApproximate) {
        ++layers->approx_probes;
      }
    }
  }
}

/// Traced drive: NextMatchRefs + MaterializeRefInto with spans around
/// every engine call, and a governor that only timestamps control
/// points and returns kProceed.
JobRun RunTraced(const Job& job, Tracer* tracer, uint64_t request,
                 LayerTotals* layers) {
  JobRun run;
  std::vector<ControlPointMark> marks;
  int64_t outside_ns = 0;
  ap::ParallelJoinOptions options = job.options;
  options.governor = [&marks, &outside_ns](const ap::EpochView& view) {
    marks.push_back(
        ControlPointMark{NowNs(), outside_ns, view.steps, view.state});
    return ap::EpochDirective::kProceed;
  };
  ap::ParallelAdaptiveJoin join(job.child, job.parent, options);
  std::vector<ap::ParallelMatchRef> refs;
  aqp::storage::ColumnBatch batch;
  const uint32_t root = tracer->Begin("bench/job", 0, request);
  const int64_t start = NowNs();
  const int64_t start_cpu = CpuNs();
  {
    ScopedSpan span(tracer, "exec.parallel/Open", root, request);
    run.status = join.Open();
  }
  if (!run.status.ok()) {
    tracer->End(root);
    return run;
  }
  IdColumns cols;
  if (auto found = FindIdColumns(join.output_schema()); found.ok()) {
    cols = *found;
  } else {
    run.status = found.status();
  }
  int64_t last_exit = NowNs();
  while (run.status.ok()) {
    const int64_t enter = NowNs();
    outside_ns += enter - last_exit;
    {
      ScopedSpan span(tracer, "exec.parallel/NextMatchRefs", root, request);
      run.status = join.NextMatchRefs(kRowsPerCall, &refs);
    }
    last_exit = NowNs();
    layers->pump_s += Seconds(last_exit - enter);
    if (!run.status.ok() || refs.empty()) break;
    const int64_t mat_start = NowNs();
    {
      ScopedSpan span(tracer, "exec/MaterializeRefInto", root, request);
      batch.Reset(&join.output_schema(), kRowsPerCall);
      for (const ap::ParallelMatchRef& ref : refs) {
        join.MaterializeRefInto(ref, &batch);
      }
    }
    layers->materialize_s += Seconds(NowNs() - mat_start);
    Harvest(batch, cols, &run.pairs);
    ObserveDeadlines(join, false, &run.deadline_answers);
  }
  Status closed;
  {
    ScopedSpan span(tracer, "exec.parallel/Close", root, request);
    closed = join.Close();
  }
  run.wall_s = Seconds(NowNs() - start);
  run.cpu_s = Seconds(CpuNs() - start_cpu);
  tracer->End(root);
  if (run.status.ok()) run.status = closed;
  run.engine_pairs = join.pairs_emitted();
  ObserveDeadlines(join, true, &run.deadline_answers);

  // Public stats accessors, read once the stream has ended.
  FoldEpochs(job, marks, layers);
  layers->epochs += join.epochs_completed();
  const ap::IngestStats& ingest = join.ingest_stats();
  layers->serial_route_s += Seconds(ingest.serial_route_ns);
  layers->overlap_route_s += Seconds(ingest.overlap_route_ns);
  layers->stall_s += Seconds(ingest.stall_ns);
  layers->epochs_staged += ingest.epochs_staged;
  for (ProcessorState s : aqp::adaptive::kAllProcessorStates) {
    layers->steps[StateIndex(s)] += join.cost().steps(s);
  }
  layers->transitions += join.trace().transition_count();
  for (const auto& record : join.trace().records()) {
    layers->catchup_tuples += record.catchup_left + record.catchup_right;
  }
  for (size_t i = 0; i < join.num_shards(); ++i) {
    layers->approx.MergeFrom(join.shard(i).core().approx_probe_stats());
    layers->approx.MergeFrom(join.shard(i).cross_probe_stats());
  }
  layers->exact_pairs += join.exact_pairs();
  layers->approx_pairs += join.approximate_pairs();
  layers->footprint_mb =
      std::max(layers->footprint_mb,
               static_cast<double>(join.peak_memory_bytes()) / (1 << 20));
  return run;
}

/// Runs one job with the pinned policy (reference runs).
JobRun RunPinned(const Job& job, ProcessorState state) {
  Job pinned = job;
  pinned.options.base.adaptive.policy = aqp::adaptive::AdaptivePolicy::kPinned;
  pinned.options.base.adaptive.initial_state = state;
  return RunUntraced(pinned);
}

/// Correctness of one job against ground truth and against the same
/// job's first answer in this process (the engine is deterministic:
/// every repetition, traced or not, must emit the identical pairs).
void CheckJob(const Job& job, const JobRun& run,
              std::vector<LinkPair>* reference, Report* report) {
  ++report->attempted;
  const std::string where = job.label + ": ";
  bool ok = true;
  if (!run.status.ok()) {
    report->Fail(where + "engine error: " + run.status.ToString());
    ok = false;
  } else if (run.pairs.size() != run.engine_pairs) {
    report->Fail(where + "delivered " + std::to_string(run.pairs.size()) +
                 " rows but the engine counted " +
                 std::to_string(run.engine_pairs));
    ok = false;
  } else {
    const LinkQuality q =
        ScoreLinkage(run.pairs, run.pairs.size(), *job.true_parent);
    if (q.out_of_range != 0) {
      report->Fail(where + std::to_string(q.out_of_range) +
                   " output ids are not input rows");
      ok = false;
    }
    if (reference->empty()) {
      *reference = run.pairs;
    } else if (reference->size() != run.pairs.size() ||
               !std::equal(reference->begin(), reference->end(),
                           run.pairs.begin(),
                           [](const LinkPair& a, const LinkPair& b) {
                             return a.child == b.child &&
                                    a.parent == b.parent;
                           })) {
      report->Fail(where + "answer differs from this seed's first answer (" +
                   std::to_string(run.pairs.size()) + " vs " +
                   std::to_string(reference->size()) + " pairs)");
      ok = false;
    }
  }
  if (!ok) ++report->failed;
}

Result<std::unique_ptr<Inputs>> SetupPaperMar(const RunConfig& config,
                                              Tracer* tracer) {
  auto inputs = std::make_unique<Inputs>();
  const int64_t start = NowNs();
  {
    ScopedSpan span(tracer, "datagen/GenerateTestCase", 0);
    aqp::datagen::TestCaseOptions base;
    base.variant_rate = 0.10;
    base.atlas.size = 8082;
    base.accidents.size = 10000;
    const std::vector<aqp::datagen::TestCaseOptions> matrix =
        aqp::datagen::PaperTestMatrix(base);
    for (size_t i = 0; i < matrix.size(); ++i) {
      // Each case draws its own atlas and accidents: run time depends
      // on the drawn strings, and eight independent draws vary less
      // from seed to seed than one draw shared by all cases.
      aqp::datagen::TestCaseOptions options = matrix[i];
      options.seed = config.seed * matrix.size() + i;
      AQP_ASSIGN_OR_RETURN(auto tc, aqp::datagen::GenerateTestCase(options));
      inputs->cases.push_back(std::move(tc));
    }
  }
  inputs->generate_s = Seconds(NowNs() - start);
  for (const aqp::datagen::TestCase& tc : inputs->cases) {
    auto child = std::make_unique<aqp::exec::RelationScan>(&tc.child);
    auto parent = std::make_unique<aqp::exec::RelationScan>(&tc.parent);
    Job job;
    job.label = tc.options.Label();
    job.child = child.get();
    job.parent = parent.get();
    job.child_rows = tc.child.size();
    job.parent_rows = tc.parent.size();
    job.true_parent = &tc.child_true_parent;
    job.options = LinkageOptions(tc, kShards);
    inputs->sources.push_back(std::move(child));
    inputs->sources.push_back(std::move(parent));
    inputs->jobs.push_back(std::move(job));
  }
  return inputs;
}

/// Timed set-ups (see RepeatSetup); keeps the last inputs.
Result<std::unique_ptr<Inputs>> TimedSetup(const RunConfig& config,
                                           Tracer* tracer, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  auto inputs = RepeatSetup(
      [&](Tracer* t) {
        auto built = SetupPaperMar(config, t);
        if (built.ok()) generate_s.push_back((*built)->generate_s);
        return built;
      },
      tracer, &setup_s);
  report->Set("setup_s", Median(setup_s));
  report->Set("datagen.generate_s", Median(generate_s));
  return inputs;
}

uint64_t PassRows(const Inputs& inputs) {
  uint64_t rows = 0;
  for (const Job& job : inputs.jobs) rows += job.child_rows + job.parent_rows;
  return rows;
}

}  // namespace

Report RunPaperMar(const RunConfig& config) {
  Report report;
  Tracer tracer(config.trace);
  auto setup = TimedSetup(config, &tracer, &report);
  if (!setup.ok()) {
    report.Fail("set-up: " + setup.status().ToString());
    return report;
  }
  Inputs& inputs = **setup;
  std::vector<std::vector<LinkPair>> reference(inputs.jobs.size());

  // Untraced measurement: whole passes over the eight cases until the
  // window is used up. The run reports rows_per_cpu_s from each job's
  // median CPU time and the median of the passes' deadline recall, so a
  // pass that other tenants of the host slowed down does not set the
  // result. A traced run measures one pass here, as the baseline of its
  // overhead.
  std::vector<double> pass_wall_s;
  std::vector<double> pass_deadline_recall;
  std::vector<std::vector<double>> wall_by_job(inputs.jobs.size());
  std::vector<std::vector<double>> cpu_by_job(inputs.jobs.size());
  LinkQuality quality;
  const int64_t window_end =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  do {
    double pass_s = 0.0;
    std::vector<double> deadline_recall;
    LinkQuality pass_quality;
    for (size_t j = 0; j < inputs.jobs.size(); ++j) {
      const Job& job = inputs.jobs[j];
      JobRun run = RunUntraced(job);
      CheckJob(job, run, &reference[j], &report);
      pass_s += run.wall_s;
      wall_by_job[j].push_back(run.wall_s);
      cpu_by_job[j].push_back(run.cpu_s);
      pass_quality.Add(
          ScoreLinkage(run.pairs, run.pairs.size(), *job.true_parent));
      for (const DeadlineAnswer& answer : run.deadline_answers) {
        deadline_recall.push_back(
            ScoreLinkage(run.pairs, answer.prefix, *job.true_parent).recall());
      }
    }
    quality = pass_quality;
    pass_wall_s.push_back(pass_s);
    double pass_cpu_s = 0.0;
    for (const std::vector<double>& cpu : cpu_by_job) pass_cpu_s += cpu.back();
    std::fprintf(stderr, "perfbench: pass: %.3f s wall, %.3f s cpu\n", pass_s,
                 pass_cpu_s);
    pass_deadline_recall.push_back(Mean(deadline_recall));
  } while (!config.trace && NowNs() < window_end);

  double median_pass_s = 0.0;
  double median_pass_cpu_s = 0.0;
  for (size_t j = 0; j < inputs.jobs.size(); ++j) {
    median_pass_s += Median(wall_by_job[j]);
    median_pass_cpu_s += Median(cpu_by_job[j]);
  }
  const auto pass_rows = static_cast<double>(PassRows(inputs));
  report.Set("rows_per_cpu_s", pass_rows / median_pass_cpu_s);
  report.Set("bench.rows_per_wall_s", pass_rows / median_pass_s);
  report.Set("recall", quality.recall());
  report.Set("precision", quality.precision());
  report.Set("deadline_recall", Median(pass_deadline_recall));
  if (!config.trace) {
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  // Reference runs (pinned all-exact and all-approximate) for the
  // paper's relative gain and cost, priced in CPU seconds.
  {
    aqp::metrics::GainCost gc;
    for (size_t j = 0; j < inputs.jobs.size(); ++j) {
      const Job& job = inputs.jobs[j];
      const JobRun exact = RunPinned(job, ProcessorState::kLexRex);
      const JobRun approx = RunPinned(job, ProcessorState::kLapRap);
      for (const JobRun* pinned : {&exact, &approx}) {
        if (!pinned->status.ok()) {
          report.Fail(job.label + ": reference run: " +
                      pinned->status.ToString());
        }
      }
      gc.r += static_cast<double>(exact.engine_pairs);
      gc.c += exact.cpu_s;
      gc.R += static_cast<double>(approx.engine_pairs);
      gc.C += approx.cpu_s;
      gc.r_abs += static_cast<double>(reference[j].size());
      gc.c_abs += Median(cpu_by_job[j]);
    }
    report.Set("adaptive.relative_gain", gc.RelativeGain());
    report.Set("adaptive.relative_cost", gc.RelativeCost());
  }

  // Traced measurement: passes with spans and the governor, for a
  // third of the window (at least one pass; per-layer values are per
  // pass).
  LayerTotals layers;
  std::vector<double> traced_pass_s;
  uint64_t request = 0;
  const int64_t traced_start = NowNs();
  const int64_t traced_end =
      traced_start + static_cast<int64_t>(config.seconds / 3 * 1e9);
  do {
    double pass_s = 0.0;
    for (size_t j = 0; j < inputs.jobs.size(); ++j) {
      const Job& job = inputs.jobs[j];
      JobRun run = RunTraced(job, &tracer, ++request, &layers);
      CheckJob(job, run, &reference[j], &report);
      pass_s += run.wall_s;
      for (const DeadlineAnswer& answer : run.deadline_answers) {
        layers.completeness_gap.push_back(
            answer.completeness -
            ScoreLinkage(run.pairs, answer.prefix, *job.true_parent).recall());
      }
    }
    for (const Job& job : inputs.jobs) {
      const int64_t drain_start = NowNs();
      for (aqp::exec::Operator* source : {job.child, job.parent}) {
        ScopedSpan span(&tracer, "exec/SourceDrain", 0, ++request);
        auto rows = DrainSource(source);
        if (!rows.ok()) {
          report.Fail(job.label + ": source drain: " +
                      rows.status().ToString());
        } else {
          layers.source_rows += *rows;
        }
      }
      layers.source_parse_s += Seconds(NowNs() - drain_start);
    }
    traced_pass_s.push_back(pass_s);
  } while (NowNs() < traced_end);
  const int64_t traced_stop = NowNs();

  const auto passes = static_cast<double>(traced_pass_s.size());
  auto per_pass = [passes](double v) { return v / passes; };
  report.Set("exec.source.parse_s", per_pass(layers.source_parse_s));
  report.Set("exec.source.rows",
             per_pass(static_cast<double>(layers.source_rows)));
  report.Set("exec.materialize_s", per_pass(layers.materialize_s));
  report.Set("exec.parallel.pump_s", per_pass(layers.pump_s));
  report.Set("exec.parallel.epochs",
             per_pass(static_cast<double>(layers.epochs)));
  report.Set("exec.parallel.epoch_s.p50", Quantile(layers.epoch_s, 0.50));
  report.Set("exec.parallel.epoch_s.p99", Quantile(layers.epoch_s, 0.99));
  report.Set("exec.parallel.ingest.serial_route_s",
             per_pass(layers.serial_route_s));
  report.Set("exec.parallel.ingest.overlap_route_s",
             per_pass(layers.overlap_route_s));
  report.Set("exec.parallel.ingest.stall_s", per_pass(layers.stall_s));
  report.Set("exec.parallel.ingest.epochs_staged",
             per_pass(static_cast<double>(layers.epochs_staged)));
  for (ProcessorState s : aqp::adaptive::kAllProcessorStates) {
    const std::string code = aqp::adaptive::ProcessorStateCode(s);
    report.Set("adaptive.steps." + code,
               per_pass(static_cast<double>(layers.steps[StateIndex(s)])));
    report.Set("adaptive.state_s." + code,
               per_pass(layers.state_s[StateIndex(s)]));
  }
  report.Set("adaptive.transitions",
             per_pass(static_cast<double>(layers.transitions)));
  report.Set("adaptive.catchup_tuples",
             per_pass(static_cast<double>(layers.catchup_tuples)));
  const aqp::join::ApproxProbeStats& a = layers.approx;
  report.Set("join.approx.grams", per_pass(static_cast<double>(a.grams)));
  report.Set("join.approx.postings_scanned",
             per_pass(static_cast<double>(a.postings_scanned)));
  report.Set("join.approx.candidates",
             per_pass(static_cast<double>(a.candidates)));
  report.Set("join.approx.verified", per_pass(static_cast<double>(a.verified)));
  report.Set("join.approx.matches", per_pass(static_cast<double>(a.matches)));
  report.Set("join.approx.probes",
             per_pass(static_cast<double>(layers.approx_probes)));
  report.Set("join.approx.candidates_per_probe",
             layers.approx_probes == 0
                 ? 0.0
                 : static_cast<double>(a.candidates) /
                       static_cast<double>(layers.approx_probes));
  report.Set("join.approx.verify_yield",
             a.verified == 0 ? 0.0
                             : static_cast<double>(a.matches) /
                                   static_cast<double>(a.verified));
  report.Set("join.exact_pairs",
             per_pass(static_cast<double>(layers.exact_pairs)));
  report.Set("join.approx_pairs",
             per_pass(static_cast<double>(layers.approx_pairs)));
  report.Set("storage.footprint_mb", layers.footprint_mb);
  report.Set("stats.completeness_gap", Mean(layers.completeness_gap));
  report.Set("trace.overhead_s",
             Median(traced_pass_s) - Median(pass_wall_s));
  const std::vector<Span> spans = tracer.spans();
  report.Set("trace.uncovered_share",
             UncoveredShare(spans, traced_start, traced_stop));
  for (const auto& [layer, self_s] :
       SelfSecondsByLayer(SpansFrom(spans, traced_start))) {
    report.Set("trace.self_s." + layer, per_pass(self_s));
  }
  report.Set("peak_rss_mb", PeakRssMb());
  const std::string dump = config.work_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (!tracer.WriteJson(dump)) report.Fail("cannot write " + dump);
  return report;
}

}  // namespace perfbench
