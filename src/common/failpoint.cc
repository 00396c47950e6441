#include "common/failpoint.h"

#include <unordered_map>
#include <utility>

#include "common/sync.h"

namespace aqp {
namespace fail {

namespace {

// SplitMix64: tiny, deterministic, good enough for fire/no-fire draws.
uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SiteState {
  bool armed = false;
  Policy policy;
  uint64_t rng = 0;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

// Lock hierarchy: `mu` is a leaf — failpoint evaluation happens inside
// arbitrary engine code, so nothing else may ever be acquired under it.
struct RegistryImpl {
  sync::Mutex mu{"failpoint.registry.mu"};
  std::unordered_map<std::string, SiteState> sites AQP_GUARDED_BY(mu);
  // Count of armed sites, mirrored into an atomic so the hot path can
  // skip the mutex entirely when nothing is armed.
  std::atomic<size_t> armed_count{0};
};

RegistryImpl& Registry() {
  static RegistryImpl* impl = new RegistryImpl();
  return *impl;
}

// Decides whether `site` fires this evaluation and, if so, returns the
// injected status (with a site breadcrumb) plus whether to throw.
// OK status <=> no fire.
std::pair<Status, bool> Evaluate(const char* site) {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  if (it == reg.sites.end() || !it->second.armed) {
    return {Status::OK(), false};
  }
  SiteState& state = it->second;
  ++state.hits;
  bool fire = false;
  switch (state.policy.kind) {
    case Policy::Kind::kOnce:
      fire = state.fires == 0;
      break;
    case Policy::Kind::kNthHit:
      fire = state.hits == state.policy.nth;
      break;
    case Policy::Kind::kProbability: {
      // Map a 53-bit draw to [0, 1); deterministic per (seed, hit #).
      const double draw =
          static_cast<double>(SplitMix64Next(&state.rng) >> 11) *
          (1.0 / 9007199254740992.0);
      fire = draw < state.policy.probability;
      break;
    }
  }
  if (!fire) return {Status::OK(), false};
  ++state.fires;
  Status injected =
      state.policy.status.WithContext(std::string("site=") + site);
  return {std::move(injected), state.policy.throws};
}

}  // namespace

std::vector<std::string> KnownSites() {
  return {site::kCsvOpen,      site::kCsvRead,      site::kScanNext,
          site::kExchangeRoute, site::kIngestPrefetch,
          site::kExchangeMerge, site::kShardPhaseA,
          site::kShardPhaseB,  site::kPoolTask,     site::kStoreAdd,
          site::kArenaAlloc,   site::kParallelOpen, site::kServiceAdmit,
          site::kServiceFinalize, site::kBudgetCharge, site::kWatchdogStall};
}

void Arm(const std::string& site, Policy policy) {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  SiteState& state = reg.sites[site];
  if (!state.armed) {
    reg.armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  state.armed = true;
  state.rng = policy.seed;
  state.policy = std::move(policy);
  state.hits = 0;
  state.fires = 0;
}

bool Disarm(const std::string& site) {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  if (it == reg.sites.end() || !it->second.armed) return false;
  it->second.armed = false;
  reg.armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DisarmAll() {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  reg.sites.clear();
  reg.armed_count.store(0, std::memory_order_relaxed);
}

uint64_t Hits(const std::string& site) {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.hits;
}

uint64_t Fires(const std::string& site) {
  RegistryImpl& reg = Registry();
  sync::MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  return it == reg.sites.end() ? 0 : it->second.fires;
}

bool AnyArmed() {
  return Registry().armed_count.load(std::memory_order_relaxed) > 0;
}

Status Check(const char* site) {
  auto fired = Evaluate(site);
  if (fired.first.ok()) return Status::OK();
  if (fired.second) throw InjectedFault(std::move(fired.first));
  return std::move(fired.first);
}

void CheckOrThrow(const char* site) {
  auto fired = Evaluate(site);
  if (fired.first.ok()) return;
  throw InjectedFault(std::move(fired.first));
}

}  // namespace fail
}  // namespace aqp
