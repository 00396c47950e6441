#ifndef AQP_PERFBENCH_TRACE_H_
#define AQP_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by
// the benchmark around its own calls into each module (the engine is
// not instrumented); a span's name is "<layer>/<operation>", where the
// layer is the module the call enters ("exec.parallel/NextMatchRefs").
// Spans stay in memory and are written out once, after the run.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the one clock every timing here uses).
int64_t NowNs();

/// CPU time this process has used, all threads, in nanoseconds
/// (CLOCK_PROCESS_CPUTIME_ID). Time the hypervisor withholds from the
/// virtual CPUs (steal) and time threads spend blocked do not count.
int64_t CpuNs();

/// Nanoseconds as seconds.
inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One recorded span. Ids start at 1; parent 0 marks a root.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  /// Spans of one request (a linkage job or a served query) share it.
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  /// The name up to the first '/' (the whole name when there is none).
  std::string layer() const;
};

/// Thread-safe span sink. A disabled tracer records nothing and hands
/// out id 0, so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span now; returns its id (0 when disabled).
  uint32_t Begin(std::string name, uint32_t parent, uint64_t request);
  /// Records a span whose bounds were taken elsewhere.
  uint32_t Record(std::string name, uint32_t parent, uint64_t request,
                  int64_t start_ns, int64_t end_ns);
  /// Closes span `id` now (no-op for id 0).
  void End(uint32_t id);

  /// Snapshot of every span (call once recording is over).
  std::vector<Span> spans() const;
  /// Writes the spans as a JSON array to `path`; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[id - 1] has `id`
};

/// RAII span: Begin at construction, End at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint32_t parent,
             uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Self time of one span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
/// Returns per-span self times indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sum of self times per layer, in seconds.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

/// The spans that started at or after `start_ns` (a measurement
/// window's spans, without the set-up's).
std::vector<Span> SpansFrom(const std::vector<Span>& spans, int64_t start_ns);

/// Share of [window_start, window_end] that no root span covers.
double UncoveredShare(const std::vector<Span>& spans, int64_t window_start,
                      int64_t window_end);

}  // namespace perfbench

#endif  // AQP_PERFBENCH_TRACE_H_
