#ifndef AQP_SERVICE_QUERY_H_
#define AQP_SERVICE_QUERY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "adaptive/state.h"
#include "common/status.h"
#include "exec/parallel/parallel_join.h"
#include "service/resource_governor.h"
#include "text/gram_order.h"

namespace aqp {
namespace service {

/// \brief Service-wide identifier of one submitted linkage query.
using QueryId = uint64_t;

/// \brief Lifecycle of a query inside the LinkageService.
///
///   queued ──▶ running ──▶ draining ──▶ done
///     │           │            │
///     │           ├──────────────────▶ failed
///     └──────────▶└──────────────────▶ cancelled
///
/// `queued`: admitted into the registry, waiting for a runner slot and
/// shard budget. `running`: its coordinator is pumping epochs on the
/// shared pool. `draining`: no further input will be consumed
/// (exhausted or deadline-finalized), buffered output is still being
/// delivered. Terminal states: `done` (full or deadline-partial result
/// available), `failed` (operator error; see QueryStats::status),
/// `cancelled` (by Cancel() or service shutdown; result discarded).
enum class QueryState {
  kQueued = 0,
  kRunning,
  kDraining,
  kDone,
  kFailed,
  kCancelled,
};

/// "queued" / "running" / "draining" / "done" / "failed" / "cancelled".
const char* QueryStateName(QueryState state);

/// True for done/failed/cancelled.
bool IsTerminalState(QueryState state);

/// \brief Per-query time budget — the paper's time-completeness knob,
/// exposed per query.
///
/// Both step budgets (deterministic: checked against the global step
/// count at every epoch control point) and wall-clock budgets
/// (measured from the moment the query starts running) are supported;
/// whichever trips first wins. Zero disables a bound.
///
/// Past the *soft* deadline the query is forced into the cheapest
/// exact state (lex/rex) and pinned there: it still runs to
/// completion, but stops paying for approximate matching. Past the
/// *hard* deadline the query is finalized early: it stops consuming
/// input at the next epoch boundary and reports the partial result it
/// has, together with its completeness statistics.
struct DeadlineOptions {
  std::chrono::nanoseconds soft_deadline{0};
  std::chrono::nanoseconds hard_deadline{0};
  uint64_t soft_deadline_steps = 0;
  uint64_t hard_deadline_steps = 0;

  bool any() const {
    return soft_deadline.count() > 0 || hard_deadline.count() > 0 ||
           soft_deadline_steps > 0 || hard_deadline_steps > 0;
  }
};

/// \brief Bounded whole-query retry with exponential backoff.
///
/// Queries are read-only over borrowed, re-openable children, so
/// re-executing one from scratch is idempotent — this extends the
/// exchange's per-refill SourceRetryOptions to query granularity, for
/// faults that killed a whole attempt (a child that died mid-run and
/// recovered, an injected transient). Only *recoverably failed*
/// attempts retry: terminal status kUnavailable or kIOError, never
/// cancellation, Internal invariant failures, or precondition bugs. A
/// degraded-to-partial query is `done`, not failed, and never retries.
struct QueryRetryOptions {
  /// Re-executions after the first attempt. 0 disables retrying.
  size_t max_retries = 0;
  /// Attempt k (1-based over retries) sleeps base * 2^(k-1) before
  /// re-running; zero base never sleeps (deterministic tests). The
  /// backoff is interruptible by Cancel() and shutdown.
  std::chrono::milliseconds backoff_base{0};
};

/// \brief Everything a caller configures per query.
struct QueryOptions {
  /// The join itself (spec, MAR thresholds, policy, shard count). The
  /// service overwrites `shared_pool` and `governor`, and clamps
  /// `num_shards` to the admission cap — shard count never changes
  /// results, only parallelism.
  exec::parallel::ParallelJoinOptions join;
  /// Time budget; default none.
  DeadlineOptions deadline;
  /// Memory budget (soft clamp / hard finalize at epoch control
  /// points); default none — fields left at zero inherit the service's
  /// ResourceGovernorOptions::default_query_budget.
  MemoryBudgetOptions memory;
  /// Stuck-query watchdog override: heartbeat stall tolerance for this
  /// query. Zero inherits the service-level stall timeout; honored only
  /// while the service watchdog is enabled.
  std::chrono::nanoseconds stall_timeout{0};
  /// Whole-query retry of recoverably failed attempts; default none.
  QueryRetryOptions retry;
  /// Match refs materialized per drain call of the runner.
  size_t drain_batch = 256;

  /// Fault policy shorthand: `join.on_fault` selects what a recoverable
  /// runtime fault does to this query — kFail (default) makes the query
  /// terminal in `failed`; kFinalizePartial degrades it to the same
  /// early-finalization path as the hard deadline, so it lands in
  /// `done` with a strict-prefix partial result, CompletenessStats, and
  /// a FaultReport in QueryStats::fault. `join.source_retry` likewise
  /// configures transparent retry of transiently unavailable sources.
};

/// \brief Final report of one query, valid once the query is terminal.
struct QueryStats {
  QueryState state = QueryState::kQueued;
  /// Terminal status: OK for done, the triggering error for failed,
  /// Cancelled for cancelled.
  Status status;
  /// Shards the query actually ran with (after admission clamping).
  size_t shards = 0;
  uint64_t steps = 0;
  uint64_t pairs_emitted = 0;
  /// True iff the hard deadline cut the run short (partial result).
  bool finalized_early = false;
  /// True iff the soft deadline forced exact-only matching.
  bool forced_exact = false;
  /// Completeness of the (possibly partial) result under the query's
  /// completeness model.
  exec::parallel::CompletenessStats completeness;
  adaptive::ProcessorState final_state = adaptive::ProcessorState::kLexRex;
  /// Wall time from start of running to terminal, zero if never ran.
  std::chrono::nanoseconds elapsed{0};
  /// Source-refill retries the exchange performed against transiently
  /// unavailable (kUnavailable) inputs before they recovered.
  uint64_t source_retries = 0;
  /// Ingest counters of the final attempt: serial_route_ns is the
  /// routing time of every epoch; the other fields read 0 (see
  /// exec::parallel::IngestStats).
  exec::parallel::IngestStats ingest;
  /// Set when a recoverable fault degraded the query to a partial
  /// result (join.on_fault == kFinalizePartial): which site fired,
  /// in which epoch, on which shard, with the original status.
  std::optional<exec::parallel::FaultReport> fault;
  /// Engine memory footprint at the end of the final attempt
  /// (shard stores/indexes and buffers, exchange batches, prefetch
  /// buffers, coordinator state) and its high-water across the run —
  /// aggregated from the parallel engine, which previously reported no
  /// memory at all through RunStats.
  uint64_t memory_bytes = 0;
  uint64_t peak_memory_bytes = 0;
  /// True iff the soft memory budget clamped the query to exact-only.
  bool memory_clamped = false;
  /// Executions of the query (1 + retries actually performed).
  uint64_t attempts = 1;
  uint64_t retries = 0;
  /// The gram order the query's filtered probes ran under (see
  /// ParallelAdaptiveJoin::gram_order). Weak: a derived order belongs
  /// to the query's join and is gone once the query is terminal —
  /// expired() then proves the service kept nothing per query.
  std::weak_ptr<const text::GramOrder> gram_order;
  /// Set when memory governance or the watchdog cut the run short:
  /// which site acted (query.hard_budget / global.high_water /
  /// watchdog.stall), against which bound, at what peak.
  std::optional<ResourceReport> resource;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_QUERY_H_
