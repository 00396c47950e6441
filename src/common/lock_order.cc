#include "common/lock_order.h"

#if AQP_LOCK_ORDER

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define AQP_LOCK_ORDER_HAVE_BACKTRACE 1
#endif
#endif

namespace aqp {
namespace sync {
namespace lock_order {

namespace {

constexpr int kMaxFrames = 32;

/// Where an order edge was first recorded: the acquiring call stack.
struct EdgeSite {
  void* frames[kMaxFrames];
  int depth = 0;
};

void CaptureStack(EdgeSite* site) {
#ifdef AQP_LOCK_ORDER_HAVE_BACKTRACE
  site->depth = backtrace(site->frames, kMaxFrames);
#else
  site->depth = 0;
#endif
}

void PrintStack(const EdgeSite& site) {
#ifdef AQP_LOCK_ORDER_HAVE_BACKTRACE
  if (site.depth > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(site.frames), site.depth, 2);
    return;
  }
#endif
  std::fprintf(stderr, "  <no backtrace available>\n");
}

void PrintCurrentStack() {
#ifdef AQP_LOCK_ORDER_HAVE_BACKTRACE
  EdgeSite here;
  CaptureStack(&here);
  PrintStack(here);
#else
  std::fprintf(stderr, "  <no backtrace available>\n");
#endif
}

/// The global acquired-order graph. Guarded by its own raw std::mutex
/// (deliberately NOT a sync::Mutex — the detector must not recurse
/// into itself) which is a leaf: no other lock is ever taken while it
/// is held.
struct Graph {
  std::mutex mu;
  uint64_t next_id = 1;
  std::unordered_map<uint64_t, const char*> names;
  /// edges[a] contains b iff some thread acquired b while holding a.
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> edges;
  /// First-seen acquisition stack per recorded edge.
  std::map<std::pair<uint64_t, uint64_t>, EdgeSite> sites;
};

/// Leaked intentionally: mutexes may be destroyed during static
/// destruction, after a function-local static's destructor would run.
Graph& G() {
  static Graph* graph = new Graph();
  return *graph;
}

/// Most locks one thread may hold at once.
constexpr size_t kMaxHeld = 64;

/// A thread's held-lock stack, in acquisition order. A fixed array in
/// trivially destructible thread-local storage: nothing is allocated,
/// so a thread that exits leaks nothing, and the stack stays usable
/// for locks taken by other thread-local destructors while the thread
/// exits (its storage lives until the thread is gone).
struct HeldStack {
  uint64_t ids[kMaxHeld];
  size_t size;

  const uint64_t* begin() const { return ids; }
  const uint64_t* end() const { return ids + size; }
};

thread_local HeldStack tl_held;

HeldStack& Held() { return tl_held; }

const char* NameLocked(const Graph& g, uint64_t id) {
  auto it = g.names.find(id);
  return it == g.names.end() ? "<destroyed>" : it->second;
}

/// Depth-first reachability from `from` to `to` over g.edges.
bool ReachableLocked(const Graph& g, uint64_t from, uint64_t to,
                     std::unordered_set<uint64_t>* visited,
                     std::vector<uint64_t>* path) {
  if (from == to) {
    path->push_back(from);
    return true;
  }
  if (!visited->insert(from).second) return false;
  auto it = g.edges.find(from);
  if (it == g.edges.end()) return false;
  for (uint64_t next : it->second) {
    if (ReachableLocked(g, next, to, visited, path)) {
      path->push_back(from);
      return true;
    }
  }
  return false;
}

[[noreturn]] void AbortInversionLocked(const Graph& g, uint64_t held,
                                       uint64_t acquiring,
                                       const std::vector<uint64_t>& path) {
  std::fprintf(stderr,
               "\n[lock_order] lock order inversion: acquiring \"%s\" (#%llu) "
               "while holding \"%s\" (#%llu), but the opposite order is "
               "already on record — some interleaving deadlocks.\n",
               NameLocked(g, acquiring),
               static_cast<unsigned long long>(acquiring), NameLocked(g, held),
               static_cast<unsigned long long>(held));
  std::fprintf(stderr, "[lock_order] recorded order path: ");
  for (size_t i = path.size(); i-- > 0;) {
    std::fprintf(stderr, "\"%s\"%s", NameLocked(g, path[i]),
                 i == 0 ? "\n" : " -> ");
  }
  std::fprintf(stderr, "[lock_order] this thread now holds:");
  for (uint64_t id : Held()) {
    std::fprintf(stderr, " \"%s\"", NameLocked(g, id));
  }
  std::fprintf(stderr, "\n[lock_order] current acquisition stack:\n");
  PrintCurrentStack();
  // The path runs acquiring -> ... -> held; its first edge is the
  // earliest recorded piece of the opposite order. path is stored in
  // reverse (held ... acquiring), so the first edge of the path is the
  // last two entries.
  if (path.size() >= 2) {
    const auto key = std::make_pair(path[path.size() - 1],
                                    path[path.size() - 2]);
    auto it = g.sites.find(key);
    if (it != g.sites.end()) {
      std::fprintf(stderr,
                   "[lock_order] conflicting edge \"%s\" -> \"%s\" was first "
                   "recorded here:\n",
                   NameLocked(g, key.first), NameLocked(g, key.second));
      PrintStack(it->second);
    }
  }
  std::abort();
}

[[noreturn]] void AbortRecursionLocked(const Graph& g, uint64_t id) {
  std::fprintf(stderr,
               "\n[lock_order] recursive acquisition: \"%s\" (#%llu) is "
               "already held by this thread (std::mutex self-deadlock).\n",
               NameLocked(g, id), static_cast<unsigned long long>(id));
  std::fprintf(stderr, "[lock_order] current acquisition stack:\n");
  PrintCurrentStack();
  std::abort();
}

}  // namespace

uint64_t Register(const char* name) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  const uint64_t id = g.next_id++;
  g.names.emplace(id, name);
  return id;
}

void Unregister(uint64_t id) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.names.erase(id);
  g.edges.erase(id);
  for (auto& [from, targets] : g.edges) {
    targets.erase(id);
  }
  for (auto it = g.sites.begin(); it != g.sites.end();) {
    if (it->first.first == id || it->first.second == id) {
      it = g.sites.erase(it);
    } else {
      ++it;
    }
  }
}

void BeforeAcquire(uint64_t id) {
  const HeldStack& held = Held();
  if (held.size == 0) return;  // no ordering constraint to record
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  for (uint64_t h : held) {
    if (h == id) AbortRecursionLocked(g, id);
    std::unordered_set<uint64_t>& targets = g.edges[h];
    if (targets.count(id) != 0) continue;  // edge already proven safe
    // Adding h -> id closes a cycle iff h is already reachable from id.
    std::unordered_set<uint64_t> visited;
    std::vector<uint64_t> path;
    if (ReachableLocked(g, id, h, &visited, &path)) {
      AbortInversionLocked(g, h, id, path);
    }
    targets.insert(id);
    CaptureStack(&g.sites[std::make_pair(h, id)]);
  }
}

void AfterAcquire(uint64_t id) {
  HeldStack& held = Held();
  if (held.size == kMaxHeld) {
    std::fprintf(stderr,
                 "\n[lock_order] one thread holds more than %zu locks; "
                 "raise kMaxHeld.\n",
                 kMaxHeld);
    std::abort();
  }
  held.ids[held.size++] = id;
}

void BeforeRelease(uint64_t id) {
  HeldStack& held = Held();
  // Out-of-order release is legal; drop the most recent occurrence.
  for (size_t i = held.size; i-- > 0;) {
    if (held.ids[i] == id) {
      std::copy(held.ids + i + 1, held.ids + held.size, held.ids + i);
      --held.size;
      return;
    }
  }
}

size_t EdgeCountForTest() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  size_t edges = 0;
  for (const auto& [from, targets] : g.edges) {
    edges += targets.size();
  }
  return edges;
}

size_t HeldCountForTest() { return Held().size; }

}  // namespace lock_order
}  // namespace sync
}  // namespace aqp

#endif  // AQP_LOCK_ORDER
