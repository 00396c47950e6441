#ifndef AQP_EXEC_PARALLEL_SHARD_H_
#define AQP_EXEC_PARALLEL_SHARD_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "adaptive/state.h"
#include "join/hybrid_core.h"
#include "join/join_types.h"
#include "join/probe.h"
#include "storage/column_batch.h"

namespace aqp {
namespace exec {
namespace parallel {

/// \brief Bookkeeping of one input row routed to a shard. The row's
/// payload lives in the shard's per-side epoch ColumnBatch (scattered
/// there by the exchange, column slice by column slice); this record
/// carries everything else the shard needs to process it without
/// recomputing exchange work: the shard-local id it will receive in
/// its store (assigned at routing time, so routing order and store
/// order agree by construction), the row's index in the side batch,
/// and the global step sequence number. The join-key hash the exchange
/// computed to pick the shard travels in the batch's hash lane.
struct RoutedRow {
  exec::Side side = exec::Side::kLeft;
  storage::TupleId local_id = 0;
  /// Row index into the epoch's per-side ColumnBatch.
  uint32_t row = 0;
  uint64_t seq = 0;
};

/// \brief The matches of one global step, as a region of a shard's
/// flat per-epoch match buffer.
struct StepOutputs {
  uint64_t seq = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// \brief One cross-shard approximate match: the JoinMatch (probe id
/// local to the probing shard, stored id local to `stored_shard`).
struct CrossMatch {
  join::JoinMatch match;
  uint32_t stored_shard = 0;
};

/// \brief One hash partition of the parallel symmetric join: its own
/// TupleStore / ExactIndex / QGramIndex pair (inside a HybridJoinCore)
/// plus the per-epoch work buffers of the two execution phases.
///
/// Partitioning is by join-key hash, so *every exact match is
/// intra-shard* (equal keys hash equally) and the shard's own step
/// loop — phase A — finds it with the exact prefix semantics of the
/// single-threaded engine: the shard processes its rows in global
/// step order, and its stores grow in that order. Approximate matches
/// may cross partitions; phase B fans each approximate probe out to
/// the other shards' q-gram indexes after the phase-A barrier, gated
/// by global sequence so a probe sees exactly the tuples the
/// single-threaded join would have indexed before it.
///
/// Tuple transport is columnar end to end: the exchange scatters
/// column slices into the shard's per-side pending ColumnBatch (no
/// Tuple object exists between child scan and shard store), and phase
/// A ingests `(key view, hash-lane hash, payload slice)` rows.
///
/// Thread contract: phase methods run on one worker at a time. During
/// phase A a shard touches only its own state. During phase B it reads
/// other shards' stores/indexes, which are frozen at the phase-A
/// barrier (gram caches and prefix lanes included: a probing tuple's
/// grams and ordered prefix materialize during its own phase-A probe, a
/// stored tuple's at q-gram-index insert).
class JoinShard {
 public:
  JoinShard(uint32_t index, const join::JoinSpec& spec,
            const join::ApproxProbeOptions& approx_options,
            adaptive::ProcessorState initial_state);

  /// \name Coordinator-side routing (between phase barriers).
  /// @{
  /// Stamps the per-side input batches with the children's schemas
  /// (called once per Open, before any routing; the schemas must
  /// outlive the shard).
  void BindSchemas(const storage::Schema* left,
                   const storage::Schema* right);

  /// Accepts row `src_row` of `src` for the *next* epoch: scatters the
  /// row's column slices (and its key-lane hash) into the shard's
  /// per-side pending batch and records its seq/ordinal under the
  /// shard-local id it will occupy.
  void RouteRow(exec::Side side, const storage::ColumnBatch& src,
                size_t src_row, uint64_t seq, uint32_t side_ordinal);

  /// Swaps the routed rows in as the current epoch's input and clears
  /// the per-epoch output buffers.
  void BeginEpoch();

  /// Join key of a routed-but-unprocessed row of `side`, addressed by
  /// the shard-local id it will occupy (the row is in the pending
  /// tier; valid until the next BeginEpoch/DiscardPending).
  std::string_view PendingJoinKey(exec::Side side,
                                  storage::TupleId local_id) const;

  /// Drops every routed-but-unprocessed row (a mid-epoch routing
  /// failure abandons the epoch): clears the pending batches and pops
  /// the seq/ordinal records those rows were assigned, so the shard's
  /// routed counts return to the last completed epoch's state.
  void DiscardPending();
  /// @}

  /// \name Phase runners (worker threads).
  /// @{
  /// Phase A: the existing symmetric-join step loop over the shard's
  /// partition — store, maintain live index, probe intra-shard, record
  /// per-step match regions.
  void RunBuildPhase();

  /// Phase B: for every epoch row probing approximately, probe every
  /// *other* shard's opposite q-gram index, keeping only stored tuples
  /// with an earlier global sequence.
  void RunCrossProbePhase(const std::vector<JoinShard*>& shards);
  /// @}

  /// Applies `state`'s per-side probe modes, catching up the newly
  /// live structures; returns {left catch-up, right catch-up} counts
  /// exactly as HybridJoinCore::SetProbeMode reports them.
  std::pair<uint64_t, uint64_t> ApplyState(adaptive::ProcessorState state);

  /// \name Merge-side accessors (coordinator, after the barriers).
  /// @{
  const join::HybridJoinCore& core() const { return core_; }
  join::HybridJoinCore* mutable_core() { return &core_; }

  /// Tuples ever routed to this shard from `side` (== the shard-local
  /// id the next routed row of that side will receive).
  size_t routed_count(exec::Side side) const {
    return seq_[static_cast<size_t>(side)].size();
  }

  /// Global sequence / per-side ordinal of a stored tuple.
  uint64_t global_seq(exec::Side side, storage::TupleId id) const {
    return seq_[static_cast<size_t>(side)][id];
  }
  uint32_t side_ordinal(exec::Side side, storage::TupleId id) const {
    return ordinal_[static_cast<size_t>(side)][id];
  }

  const std::vector<StepOutputs>& step_outputs() const {
    return step_outputs_;
  }
  const std::vector<join::JoinMatch>& matches() const { return matches_; }
  const std::vector<StepOutputs>& cross_step_outputs() const {
    return cross_step_outputs_;
  }
  const std::vector<CrossMatch>& cross_matches() const {
    return cross_matches_;
  }

  /// Cumulative cross-probe work counters (introspection; the shard
  /// core's own stats cover intra-shard probes).
  const join::ApproxProbeStats& cross_probe_stats() const {
    return cross_stats_;
  }

  uint32_t index() const { return index_; }
  /// @}

  /// Reserves store capacity for expected per-shard cardinalities.
  void ReserveStores(size_t left_hint, size_t right_hint) {
    core_.ReserveStores(left_hint, right_hint);
  }

  /// Allocated footprint (capacity-based, like the core's): core
  /// stores/indexes, pending/epoch tiers, routing maps, phase output
  /// buffers, and both probe scratches.
  uint64_t ApproximateMemoryUsage() const;

 private:
  uint32_t index_;
  join::JoinSpec spec_;
  join::ApproxProbeOptions approx_options_;
  join::HybridJoinCore core_;

  /// Routed-but-not-yet-processed rows (next epoch) and the epoch
  /// currently being processed: per-side column batches plus the
  /// routing bookkeeping, in routing (= global step) order.
  storage::ColumnBatch pending_rows_[2];
  storage::ColumnBatch epoch_rows_[2];
  std::vector<RoutedRow> pending_meta_;
  std::vector<RoutedRow> epoch_meta_;

  /// Shard-local id -> global seq / per-side ordinal, per side.
  /// Appended at routing time; read cross-shard during phase B (frozen
  /// then) and by the coordinator merge.
  std::vector<uint64_t> seq_[2];
  std::vector<uint32_t> ordinal_[2];

  /// Phase-A outputs: per-step regions over a flat match buffer.
  std::vector<StepOutputs> step_outputs_;
  std::vector<join::JoinMatch> matches_;

  /// Phase-B outputs: per-step regions over the cross-match buffer
  /// (only steps that probed approximately have a region).
  std::vector<StepOutputs> cross_step_outputs_;
  std::vector<CrossMatch> cross_matches_;

  /// Reusable probe working memory for phase B (phase A uses the
  /// core's internal scratch).
  join::ApproxProbeScratch cross_scratch_;
  std::vector<join::JoinMatch> cross_tmp_;
  join::ApproxProbeStats cross_stats_;
};

}  // namespace parallel
}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PARALLEL_SHARD_H_
