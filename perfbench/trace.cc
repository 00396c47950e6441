#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::string Span::layer() const { return name.substr(0, name.find('/')); }

uint32_t Tracer::Begin(std::string name, uint32_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const int64_t now = NowNs();
  return Record(std::move(name), parent, request, now, now);
}

uint32_t Tracer::Record(std::string name, uint32_t parent, uint64_t request,
                        int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) continue;
    children[parent->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              CoveredNs(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer()] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_layer;
}

std::vector<Span> SpansFrom(const std::vector<Span>& spans, int64_t start_ns) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.start_ns >= start_ns) out.push_back(s);
  }
  return out;
}

double UncoveredShare(const std::vector<Span>& spans, int64_t window_start,
                      int64_t window_end) {
  if (window_end <= window_start) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) roots.emplace_back(s.start_ns, s.end_ns);
  }
  const int64_t covered = CoveredNs(std::move(roots), window_start, window_end);
  return 1.0 - static_cast<double>(covered) /
                   static_cast<double>(window_end - window_start);
}

}  // namespace perfbench
