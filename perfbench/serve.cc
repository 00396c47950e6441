// serve_open_loop: LinkageService under an open loop. One submitter
// thread sends queries on a fixed schedule (a fixed interval; the seed
// picks each slot's tenant and input), whatever the service's backlog.
// Each query is timed from the moment it was due, not from when it was
// actually sent, so a stall of the submitter or of the service shows
// up in every later query's latency. A waiter thread per query blocks
// in Wait, so no query's latency includes another's.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/macros.h"
#include "datagen/pattern.h"
#include "exec/scan.h"
#include "service/linkage_service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace ap = aqp::exec::parallel;
namespace svc = aqp::service;
using aqp::Result;
using aqp::Status;

/// Distinct query inputs per run: the paper's eight cases (four
/// patterns, child-only or both perturbed) at two seeds each. Fewer
/// cases make deadline recall depend on which few the seed drew.
constexpr size_t kCases = 16;
constexpr size_t kAtlasRows = 750;
constexpr size_t kAccidentRows = 1500;
/// Offered load: about half of the service's capacity on this mix,
/// which completed 31-41 queries/s under a saturating schedule on a
/// 4-CPU host (measured while the deadline tenant had a 30 ms
/// wall-clock deadline instead of a step budget). A 15 s schedule then
/// holds 202 full-answer queries, enough for a p95 with 10 samples
/// beyond it.
constexpr double kQueriesPerSecond = 18.0;
/// Hard deadline of the deadline tenant, in join steps (input rows
/// read) from the moment the query starts running; the service
/// finalizes the query at the first control point past it. A step
/// budget, not a wall-clock one, so the answer does not depend on how
/// much CPU the hypervisor withheld while the query ran.
constexpr uint64_t kHardDeadlineSteps = 1600;
/// The run is invalid when the submitter's p95 lateness exceeds half
/// the send interval: the offered load was then not the one the
/// schedule promised. (A single late send, e.g. while the hypervisor
/// withheld CPU, does not invalidate it.)
constexpr double kMaxGeneratorLagP95S = 0.5 / kQueriesPerSecond;

enum class Tenant { kAdaptive = 0, kExact = 1, kDeadline = 2 };
constexpr size_t kTenants = 3;

const char* TenantName(Tenant t) {
  switch (t) {
    case Tenant::kAdaptive:
      return "adaptive";
    case Tenant::kExact:
      return "exact";
    case Tenant::kDeadline:
      return "deadline";
  }
  return "?";
}

struct ServeInputs {
  std::vector<aqp::datagen::TestCase> cases;
  std::unique_ptr<svc::LinkageService> service;
  double generate_s = 0.0;
};

/// One scheduled query and what happened to it.
struct Slot {
  Tenant tenant = Tenant::kAdaptive;
  size_t case_index = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// The query's children; borrowed by the service until terminal.
  std::unique_ptr<aqp::exec::RelationScan> child;
  std::unique_ptr<aqp::exec::RelationScan> parent;
  Status status;
  svc::QueryStats stats;
  std::vector<LinkPair> pairs;
  std::atomic<bool> finished{false};
};

svc::QueryOptions OptionsFor(const aqp::datagen::TestCase& tc, Tenant t) {
  svc::QueryOptions options;
  options.join = LinkageOptions(tc, 2);
  if (t == Tenant::kExact) {
    options.join.base.adaptive.policy = aqp::adaptive::AdaptivePolicy::kPinned;
    options.join.base.adaptive.initial_state =
        aqp::adaptive::ProcessorState::kLexRex;
  }
  if (t == Tenant::kDeadline) {
    options.deadline.hard_deadline_steps = kHardDeadlineSteps;
  }
  return options;
}

Result<std::vector<LinkPair>> PairsOf(const aqp::storage::Relation& rel) {
  AQP_ASSIGN_OR_RETURN(size_t child, rel.schema().RequireIndexOf("accident_id"));
  AQP_ASSIGN_OR_RETURN(size_t parent,
                       rel.schema().RequireIndexOf("municipality_id"));
  std::vector<LinkPair> pairs;
  pairs.reserve(rel.size());
  for (const aqp::storage::Tuple& row : rel.rows()) {
    pairs.push_back(LinkPair{row[child].AsInt64(), row[parent].AsInt64()});
  }
  return pairs;
}

Result<std::unique_ptr<ServeInputs>> Setup(const RunConfig& config,
                                           Tracer* tracer) {
  auto inputs = std::make_unique<ServeInputs>();
  const int64_t start = NowNs();
  {
    ScopedSpan span(tracer, "datagen/GenerateTestCase", 0);
    for (size_t i = 0; i < kCases; ++i) {
      aqp::datagen::TestCaseOptions options;
      options.pattern = aqp::datagen::kAllPatterns[i % 4];
      options.perturb_parent = (i / 4) % 2 == 1;
      options.variant_rate = 0.10;
      options.atlas.size = kAtlasRows;
      options.accidents.size = kAccidentRows;
      options.seed = config.seed * kCases + i;
      AQP_ASSIGN_OR_RETURN(auto tc, aqp::datagen::GenerateTestCase(options));
      inputs->cases.push_back(std::move(tc));
    }
  }
  inputs->generate_s = Seconds(NowNs() - start);
  ScopedSpan span(tracer, "service/LinkageService", 0);
  svc::ServiceOptions options;
  options.worker_threads = 2;
  options.admission.max_concurrent_queries = 2;
  options.admission.max_total_shards = 4;
  inputs->service = std::make_unique<svc::LinkageService>(options);
  return inputs;
}

/// Solo engine run of one case and tenant: the answer the service must
/// reproduce byte for byte (and, for the deadline tenant, a prefix of
/// the adaptive one).
Result<std::vector<LinkPair>> SoloAnswer(const aqp::datagen::TestCase& tc,
                                         Tenant t) {
  aqp::exec::RelationScan child(&tc.child);
  aqp::exec::RelationScan parent(&tc.parent);
  ap::ParallelAdaptiveJoin join(&child, &parent, OptionsFor(tc, t).join);
  AQP_ASSIGN_OR_RETURN(aqp::storage::Relation rel, aqp::exec::CollectAll(&join));
  return PairsOf(rel);
}

/// Seeded schedule: slot i is due at i / rate; every block of four
/// slots holds two adaptive queries, one exact and one deadline query,
/// in seeded order, so the mix is the same on every seed.
std::vector<std::unique_ptr<Slot>> MakeSchedule(uint64_t seed,
                                                double seconds,
                                                int64_t start_ns) {
  std::mt19937_64 rng(seed);
  const auto count = static_cast<size_t>(seconds * kQueriesPerSecond);
  std::vector<std::unique_ptr<Slot>> slots;
  Tenant block[] = {Tenant::kAdaptive, Tenant::kAdaptive, Tenant::kExact,
                    Tenant::kDeadline};
  constexpr size_t kBlock = sizeof(block) / sizeof(block[0]);
  for (size_t i = 0; i < count; ++i) {
    if (i % kBlock == 0) {
      for (size_t k = kBlock - 1; k > 0; --k) {
        std::swap(block[k], block[rng() % (k + 1)]);
      }
    }
    auto slot = std::make_unique<Slot>();
    slot->tenant = block[i % kBlock];
    slot->case_index = static_cast<size_t>(rng() % kCases);
    slot->due_ns = start_ns + static_cast<int64_t>(
                                  static_cast<double>(i) * 1e9 /
                                  kQueriesPerSecond);
    slots.push_back(std::move(slot));
  }
  return slots;
}

/// Runs one schedule to completion.
void RunSchedule(ServeInputs* inputs, std::vector<std::unique_ptr<Slot>>* slots,
                 Tracer* tracer) {
  svc::LinkageService* service = inputs->service.get();
  std::vector<std::thread> waiters(slots->size());
  size_t reaped = 0;
  for (size_t i = 0; i < slots->size(); ++i) {
    Slot* slot = (*slots)[i].get();
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(slot->due_ns)));
    const aqp::datagen::TestCase& tc = inputs->cases[slot->case_index];
    slot->child = std::make_unique<aqp::exec::RelationScan>(&tc.child);
    slot->parent = std::make_unique<aqp::exec::RelationScan>(&tc.parent);
    slot->sent_ns = NowNs();
    const uint32_t root = tracer->Record("bench/query", 0, i + 1,
                                         slot->due_ns, slot->due_ns);
    Result<svc::QueryId> id = [&] {
      ScopedSpan span(tracer, "service/Submit", root, i + 1);
      return service->Submit(slot->child.get(), slot->parent.get(),
                             OptionsFor(tc, slot->tenant));
    }();
    if (!id.ok()) {
      slot->status = id.status();
      slot->done_ns = NowNs();
      slot->finished = true;
      tracer->End(root);
      continue;
    }
    waiters[i] = std::thread([service, slot, tracer, root, i, qid = *id] {
      Result<svc::QueryStats> stats = [&] {
        ScopedSpan span(tracer, "service/Wait", root, i + 1);
        return service->Wait(qid);
      }();
      slot->done_ns = NowNs();
      if (!stats.ok()) {
        slot->status = stats.status();
      } else {
        slot->stats = *stats;
        slot->status = stats->status;
        if (stats->state == svc::QueryState::kDone) {
          ScopedSpan span(tracer, "service/TakeResult", root, i + 1);
          auto rel = service->TakeResult(qid);
          auto pairs = rel.ok() ? PairsOf(*rel) : rel.status();
          if (pairs.ok()) {
            slot->pairs = std::move(*pairs);
          } else {
            slot->status = pairs.status();
          }
        } else if (slot->status.ok()) {
          slot->status = Status::Internal(
              std::string("query ended ") + svc::QueryStateName(stats->state));
        }
      }
      tracer->End(root);
      slot->finished = true;
    });
    // Reap finished waiters so their stacks do not pile up.
    while (reaped < i && (!waiters[reaped].joinable() ||
                          (*slots)[reaped]->finished.load())) {
      if (waiters[reaped].joinable()) waiters[reaped].join();
      ++reaped;
    }
  }
  for (std::thread& t : waiters) {
    if (t.joinable()) t.join();
  }
}

/// Everything one schedule measured.
struct ScheduleResult {
  /// Full-answer queries: due time to Wait return.
  std::vector<double> latency_s;
  std::vector<double> queue_wait_s;
  std::vector<double> run_s;
  std::vector<double> lag_s;
  std::vector<double> deadline_recall;
  std::vector<double> completeness_gap;
  LinkQuality quality;  // full-answer tenants
  /// Rows of answered queries per second, due time of the first to
  /// the last Wait return (set by the offered load unless the service
  /// falls behind).
  double rows_per_wall_s = 0.0;
  /// Rows of answered queries per CPU second the process spent on the
  /// schedule (service, submitter and waiters).
  double rows_per_cpu_s = 0.0;
  uint64_t rows = 0;
  uint64_t finalized_early = 0;
  uint64_t forced_exact = 0;
  uint64_t retries = 0;
  double footprint_mb = 0.0;
  ap::IngestStats ingest;
};

bool SamePairs(const std::vector<LinkPair>& a, const std::vector<LinkPair>& b,
               size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].child != b[i].child || a[i].parent != b[i].parent) return false;
  }
  return true;
}

ScheduleResult Evaluate(const ServeInputs& inputs,
                        const std::vector<std::unique_ptr<Slot>>& slots,
                        const std::vector<std::vector<LinkPair>>& solo,
                        Report* report) {
  ScheduleResult out;
  uint64_t rows = 0;
  int64_t first_due = slots.empty() ? 0 : slots.front()->due_ns;
  int64_t last_done = first_due;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = *slots[i];
    const aqp::datagen::TestCase& tc = inputs.cases[slot.case_index];
    const std::string where = "query " + std::to_string(i) + " (" +
                              TenantName(slot.tenant) + ", case " +
                              std::to_string(slot.case_index) + "): ";
    ++report->attempted;
    out.lag_s.push_back(Seconds(slot.sent_ns - slot.due_ns));
    const double latency = Seconds(slot.done_ns - slot.due_ns);
    // Latency counts full-answer queries; a deadline query's cut-short
    // answer is measured by deadline_recall instead.
    if (slot.tenant != Tenant::kDeadline) out.latency_s.push_back(latency);
    last_done = std::max(last_done, slot.done_ns);
    if (!slot.status.ok()) {
      report->Fail(where + slot.status.ToString());
      ++report->failed;
      continue;
    }
    const double run = static_cast<double>(slot.stats.elapsed.count()) * 1e-9;
    out.run_s.push_back(run);
    out.queue_wait_s.push_back(latency - run);
    out.finalized_early += slot.stats.finalized_early ? 1 : 0;
    out.forced_exact += slot.stats.forced_exact ? 1 : 0;
    out.retries += slot.stats.retries;
    out.footprint_mb =
        std::max(out.footprint_mb,
                 static_cast<double>(slot.stats.peak_memory_bytes) / (1 << 20));
    out.ingest.serial_route_ns += slot.stats.ingest.serial_route_ns;
    out.ingest.overlap_route_ns += slot.stats.ingest.overlap_route_ns;
    out.ingest.stall_ns += slot.stats.ingest.stall_ns;
    out.ingest.epochs_staged += slot.stats.ingest.epochs_staged;
    rows += slot.stats.steps;

    const LinkQuality q =
        ScoreLinkage(slot.pairs, slot.pairs.size(), tc.child_true_parent);
    const size_t tenant = static_cast<size_t>(slot.tenant);
    const std::vector<LinkPair>& expected =
        solo[slot.case_index * kTenants +
             (slot.tenant == Tenant::kDeadline ? 0 : tenant)];
    bool ok = q.out_of_range == 0;
    if (slot.tenant == Tenant::kDeadline) {
      // A deadline answer is a strict prefix of the full adaptive one.
      ok = ok && slot.pairs.size() <= expected.size() &&
           SamePairs(slot.pairs, expected, slot.pairs.size());
      out.deadline_recall.push_back(q.recall());
      out.completeness_gap.push_back(slot.stats.completeness.ratio -
                                     q.recall());
    } else {
      ok = ok && !slot.stats.finalized_early &&
           slot.pairs.size() == expected.size() &&
           SamePairs(slot.pairs, expected, expected.size());
      out.quality.Add(q);
    }
    if (!ok) {
      report->Fail(where + "answer (" + std::to_string(slot.pairs.size()) +
                   " pairs) does not match the solo engine run (" +
                   std::to_string(expected.size()) + " pairs)");
      ++report->failed;
    }
  }
  out.rows = rows;
  out.rows_per_wall_s =
      static_cast<double>(rows) / Seconds(last_done - first_due);
  return out;
}

/// Measures one schedule of config.seconds and checks its answers.
ScheduleResult MeasureSchedule(ServeInputs* inputs, const RunConfig& config,
                               uint64_t schedule_seed,
                               const std::vector<std::vector<LinkPair>>& solo,
                               Tracer* tracer, Report* report) {
  // Start a little ahead so the first slot is not already late.
  auto slots = MakeSchedule(schedule_seed, config.seconds, NowNs() + 20000000);
  const int64_t cpu_start = CpuNs();
  RunSchedule(inputs, &slots, tracer);
  const int64_t cpu_stop = CpuNs();
  ScheduleResult result = Evaluate(*inputs, slots, solo, report);
  result.rows_per_cpu_s =
      static_cast<double>(result.rows) / Seconds(cpu_stop - cpu_start);
  std::fprintf(stderr,
               "perfbench: schedule: latency p50 %.4f s, p95 %.4f s, "
               "deadline recall %.4f, %.0f rows/cpu-s\n",
               Quantile(result.latency_s, 0.50),
               Quantile(result.latency_s, 0.95), Mean(result.deadline_recall),
               result.rows_per_cpu_s);
  return result;
}

/// A schedule whose submitter fell behind, or with too few full-answer
/// queries for a p95, does not measure what it claims.
void CheckValid(const ScheduleResult& result, Report* report) {
  const double lag_p95 = Quantile(result.lag_s, 0.95);
  if (lag_p95 > kMaxGeneratorLagP95S) {
    report->Fail("submitter fell behind its schedule (p95 lateness " +
                 std::to_string(lag_p95) + " s); the run is invalid");
  }
  if (SamplesBeyond(result.latency_s.size(), 95.0) < kMinSamplesBeyond) {
    report->Fail("only " + std::to_string(result.latency_s.size()) +
                 " queries: p95 needs " + std::to_string(kMinSamplesBeyond) +
                 " samples beyond it");
  }
}

}  // namespace

Report RunServeOpenLoop(const RunConfig& config) {
  Report report;
  Tracer tracer(config.trace);
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  auto built = RepeatSetup(
      [&](Tracer* t) {
        auto setup = Setup(config, t);
        if (setup.ok()) generate_s.push_back((*setup)->generate_s);
        return setup;
      },
      &tracer, &setup_s);
  if (!built.ok()) {
    report.Fail("set-up: " + built.status().ToString());
    return report;
  }
  std::unique_ptr<ServeInputs> inputs = std::move(*built);
  report.Set("setup_s", Median(setup_s));
  report.Set("datagen.generate_s", Median(generate_s));

  // Solo answers per (case, tenant); the deadline tenant's entry is
  // unused (it is checked against the adaptive answer).
  std::vector<std::vector<LinkPair>> solo(kCases * kTenants);
  for (size_t c = 0; c < kCases; ++c) {
    for (Tenant t : {Tenant::kAdaptive, Tenant::kExact}) {
      auto answer = SoloAnswer(inputs->cases[c], t);
      if (!answer.ok()) {
        report.Fail("solo run: " + answer.status().ToString());
        return report;
      }
      solo[c * kTenants + static_cast<size_t>(t)] = std::move(*answer);
    }
  }

  // Untraced measurement: three schedules of a third of the window
  // each. The run reports each metric's median over them, so a schedule
  // that other tenants of the host slowed down does not set the
  // result. A traced run measures one, as the baseline of its overhead.
  Tracer untraced(false);
  RunConfig part = config;
  part.seconds = config.seconds / 3;
  std::vector<ScheduleResult> timed;
  for (int i = 0; i < (config.trace ? 1 : 3); ++i) {
    timed.push_back(MeasureSchedule(inputs.get(), part, config.seed, solo,
                                    &untraced, &report));
    CheckValid(timed.back(), &report);
  }
  auto median = [&timed](double (*metric)(const ScheduleResult&)) {
    std::vector<double> values;
    for (const ScheduleResult& r : timed) values.push_back(metric(r));
    return Median(values);
  };
  report.Set("rows_per_cpu_s",
             median([](const ScheduleResult& r) { return r.rows_per_cpu_s; }));
  report.Set("bench.rows_per_wall_s", median([](const ScheduleResult& r) {
               return r.rows_per_wall_s;
             }));
  report.Set("service.latency_s.p50", median([](const ScheduleResult& r) {
               return Quantile(r.latency_s, 0.50);
             }));
  report.Set("service.latency_s.p95", median([](const ScheduleResult& r) {
               return Quantile(r.latency_s, 0.95);
             }));
  // Every schedule runs the same queries, so their answers are equal.
  report.Set("recall", timed.front().quality.recall());
  report.Set("precision", timed.front().quality.precision());
  report.Set("deadline_recall", median([](const ScheduleResult& r) {
               return Mean(r.deadline_recall);
             }));
  if (!config.trace) {
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  const int64_t traced_start = NowNs();
  const ScheduleResult traced = MeasureSchedule(
      inputs.get(), part, config.seed, solo, &tracer, &report);
  CheckValid(traced, &report);
  const int64_t traced_stop = NowNs();
  // Standalone drain of every distinct query input.
  const int64_t drain_start = NowNs();
  uint64_t source_rows = 0;
  for (const aqp::datagen::TestCase& tc : inputs->cases) {
    for (const aqp::storage::Relation* rel : {&tc.child, &tc.parent}) {
      aqp::exec::RelationScan scan(rel);
      auto rows = DrainSource(&scan);
      if (rows.ok()) {
        source_rows += *rows;
      } else {
        report.Fail("source drain: " + rows.status().ToString());
      }
    }
  }
  report.Set("exec.source.parse_s", Seconds(NowNs() - drain_start));
  report.Set("exec.source.rows", static_cast<double>(source_rows));
  report.Set("bench.generator_lag_s.p95", Quantile(traced.lag_s, 0.95));
  report.Set("bench.generator_lag_s.max", Quantile(traced.lag_s, 1.0));
  report.Set("service.queue_wait_s.p50", Quantile(traced.queue_wait_s, 0.50));
  report.Set("service.queue_wait_s.p95", Quantile(traced.queue_wait_s, 0.95));
  report.Set("service.run_s.p50", Quantile(traced.run_s, 0.50));
  report.Set("service.run_s.p95", Quantile(traced.run_s, 0.95));
  report.Set("service.peak_running",
             static_cast<double>(inputs->service->peak_running_queries()));
  report.Set("service.shed",
             static_cast<double>(inputs->service->memory_shed_total()));
  report.Set("service.finalized_early",
             static_cast<double>(traced.finalized_early));
  report.Set("service.forced_exact", static_cast<double>(traced.forced_exact));
  report.Set("service.retries", static_cast<double>(traced.retries));
  report.Set("stats.completeness_gap", Mean(traced.completeness_gap));
  report.Set("storage.footprint_mb", traced.footprint_mb);
  report.Set("exec.parallel.ingest.serial_route_s",
             Seconds(traced.ingest.serial_route_ns));
  report.Set("exec.parallel.ingest.overlap_route_s",
             Seconds(traced.ingest.overlap_route_ns));
  report.Set("exec.parallel.ingest.stall_s", Seconds(traced.ingest.stall_ns));
  report.Set("exec.parallel.ingest.epochs_staged",
             static_cast<double>(traced.ingest.epochs_staged));
  report.Set("trace.overhead_s", Quantile(traced.latency_s, 0.50) -
                                     Quantile(timed.front().latency_s, 0.50));
  const std::vector<Span> spans = tracer.spans();
  report.Set("trace.uncovered_share",
             UncoveredShare(spans, traced_start, traced_stop));
  for (const auto& [layer, self_s] :
       SelfSecondsByLayer(SpansFrom(spans, traced_start))) {
    report.Set("trace.self_s." + layer, self_s);
  }
  report.Set("peak_rss_mb", PeakRssMb());
  const std::string dump = config.work_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (!tracer.WriteJson(dump)) report.Fail("cannot write " + dump);
  return report;
}

}  // namespace perfbench
