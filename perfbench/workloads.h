#ifndef AQP_PERFBENCH_WORKLOADS_H_
#define AQP_PERFBENCH_WORKLOADS_H_

// The workloads and what they share. Every workload drives the
// engine and the service only through their public entry points:
// Open/NextColumnBatch/NextMatchRefs/MaterializeRefInto/Close,
// ParallelJoinOptions::governor, public stats accessors, and
// LinkageService::Submit/Wait/TakeResult. It never subclasses
// exec::Operator, never uses the single-threaded AdaptiveJoin, and
// leaves pipeline_ingest at its default.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "trace.h"

namespace perfbench {

/// What one benchmark process was asked to do.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of one measurement window.
  double seconds = 45.0;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics
  /// from a traced measurement that follows an untraced one.
  bool trace = false;
  /// Scratch directory inside the checkout (CSV inputs, span dumps).
  std::string work_dir;
};

/// What a workload measured. Metrics a workload does not exercise are
/// left unset; main() reports them as 0.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Marks the run incorrect; the reason goes to stderr.
  void Fail(const std::string& why);
};

Report RunPaperMar(const RunConfig& config);
Report RunServeOpenLoop(const RunConfig& config);

/// \name Shared helpers.
/// @{
/// Runs a set-up at least kMinSetups times and until kSetupWindowS has
/// passed (so a burst of interference from other processes hits a
/// minority of the samples), appending the CPU seconds each took to
/// `*seconds`; setup_s is their median. Only the first set-up is traced.
/// Returns the last set-up's inputs, or the first error.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 50;
inline constexpr double kSetupWindowS = 2.0;

template <typename Build>
auto RepeatSetup(const Build& build, Tracer* tracer,
                 std::vector<double>* seconds) {
  Tracer untraced(false);
  const int64_t first = NowNs();
  int64_t cpu_start = CpuNs();
  auto result = build(tracer);
  seconds->push_back(Seconds(CpuNs() - cpu_start));
  while (result.ok() && static_cast<int>(seconds->size()) < kMaxSetups &&
         (static_cast<int>(seconds->size()) < kMinSetups ||
          Seconds(NowNs() - first) < kSetupWindowS)) {
    result = aqp::Status::Cancelled("replaced");  // free the old inputs
    cpu_start = CpuNs();
    result = build(&untraced);
    seconds->push_back(Seconds(CpuNs() - cpu_start));
  }
  return result;
}

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();

/// Standalone Open/NextColumnBatch/Close drain of a source; returns
/// the rows read.
aqp::Result<uint64_t> DrainSource(aqp::exec::Operator* source);

/// The paper's §4 linkage configuration over a datagen case: child
/// (accidents) on the left, parent (atlas) on the right, θ_sim = 0.85,
/// q = 3, δ_adapt = W = 100, θ_out = 0.05, θ_curpert = 2,
/// θ_pastpert = 5, adaptive MAR starting in lex/rex.
aqp::exec::parallel::ParallelJoinOptions LinkageOptions(
    const aqp::datagen::TestCase& tc, size_t shards);
/// @}

}  // namespace perfbench

#endif  // AQP_PERFBENCH_WORKLOADS_H_
