// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload paper_mar|serve_open_loop
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit SHA]
//
// Prints the run environment as one JSON line, then each metric as
// "name value unit", then the result as the last line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 the
// per-layer metrics of a traced run. Exits 1 when any answer was wrong
// or the run was invalid, 2 on bad arguments, 3 on a non-Release build.
// perfbench/run.py builds this program and is the way to run it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed by every workload with tracing off.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rows_per_cpu_s", "rows/cpu-s"},
    {"recall", "ratio"},
    {"precision", "ratio"},
    {"peak_rss_mb", "MB"},
    {"deadline_recall", "ratio"},
    {"ok_share", "ratio"},
};

// The per-layer metrics of the traced run. A layer a workload does not
// exercise reads 0 (see perfbench/WORKLOADS.md for which apply where).
const MetricDef kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"exec.source.parse_s", "s"},
    {"exec.source.rows", "count"},
    {"exec.materialize_s", "s"},
    {"exec.parallel.pump_s", "s"},
    {"exec.parallel.epochs", "count"},
    {"exec.parallel.epoch_s.p50", "s"},
    {"exec.parallel.epoch_s.p99", "s"},
    {"exec.parallel.ingest.serial_route_s", "s"},
    {"exec.parallel.ingest.overlap_route_s", "s"},
    {"exec.parallel.ingest.stall_s", "s"},
    {"exec.parallel.ingest.epochs_staged", "count"},
    {"adaptive.steps.EE", "count"},
    {"adaptive.steps.AE", "count"},
    {"adaptive.steps.EA", "count"},
    {"adaptive.steps.AA", "count"},
    {"adaptive.state_s.EE", "s"},
    {"adaptive.state_s.AE", "s"},
    {"adaptive.state_s.EA", "s"},
    {"adaptive.state_s.AA", "s"},
    {"adaptive.transitions", "count"},
    {"adaptive.catchup_tuples", "count"},
    {"adaptive.relative_gain", "ratio"},
    {"adaptive.relative_cost", "ratio"},
    {"join.approx.probes", "count"},
    {"join.approx.grams", "count"},
    {"join.approx.postings_scanned", "count"},
    {"join.approx.candidates", "count"},
    {"join.approx.verified", "count"},
    {"join.approx.matches", "count"},
    {"join.approx.candidates_per_probe", "ratio"},
    {"join.approx.verify_yield", "ratio"},
    {"join.exact_pairs", "count"},
    {"join.approx_pairs", "count"},
    {"storage.footprint_mb", "MB"},
    {"stats.completeness_gap", "ratio"},
    {"service.latency_s.p50", "s"},
    {"service.latency_s.p95", "s"},
    {"service.queue_wait_s.p50", "s"},
    {"service.queue_wait_s.p95", "s"},
    {"service.run_s.p50", "s"},
    {"service.run_s.p95", "s"},
    {"service.peak_running", "count"},
    {"service.shed", "count"},
    {"service.finalized_early", "count"},
    {"service.forced_exact", "count"},
    {"service.retries", "count"},
    {"bench.rows_per_wall_s", "rows/s"},
    {"bench.generator_lag_s.p95", "s"},
    {"bench.generator_lag_s.max", "s"},
    {"trace.overhead_s", "s"},
    {"trace.uncovered_share", "ratio"},
    {"trace.self_s.bench", "s"},
    {"trace.self_s.exec", "s"},
    {"trace.self_s.exec.parallel", "s"},
    {"trace.self_s.service", "s"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_mar|serve_open_loop"
               " --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit SHA]\n",
               why);
  return 2;
}

/// JSON string literal (the values here are plain ASCII we control,
/// but the compiler string and commit come from outside).
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to record numbers from a non-Release "
               "build (NDEBUG and optimization are required)\n");
  return 3;
#endif
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 600) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      config.work_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --work-dir "
                 "are required");
  }

  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build\": \"Release\", \"failpoints\": %s, "
      "\"nproc\": %u, \"compiler\": %s, \"commit\": %s, "
      "\"loadavg_1m\": %s}}\n",
      Quoted(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0,
      aqp::fail::kCompiledIn ? "true" : "false",
      std::thread::hardware_concurrency(), Quoted(Compiler()).c_str(),
      Quoted(commit).c_str(), Number(load[0]).c_str());
  std::fflush(stdout);

  Report report;
  if (config.workload == "paper_mar") {
    report = perfbench::RunPaperMar(config);
  } else if (config.workload == "serve_open_loop") {
    report = perfbench::RunServeOpenLoop(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (report.attempted > 0) {
    report.Set("ok_share", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
  }

  std::string metrics;
  for (const MetricDef& m : config.trace ? std::vector<MetricDef>(
                                               std::begin(kPerLayer),
                                               std::end(kPerLayer))
                                         : std::vector<MetricDef>(
                                               std::begin(kEndToEnd),
                                               std::end(kEndToEnd))) {
    auto it = report.metrics.find(m.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!config.trace) {
      report.Fail(std::string("workload did not measure ") + m.name);
    }
    if (!std::isfinite(value)) {
      report.Fail(std::string(m.name) + " is not a finite number");
      value = 0.0;
    }
    std::printf("%-40s %14.6g %s\n", m.name, value, m.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += Quoted(m.name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + Quoted(m.unit) + "}";
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}
