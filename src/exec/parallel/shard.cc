#include "exec/parallel/shard.h"

#include <cassert>
#include <utility>

#include "common/failpoint.h"

namespace aqp {
namespace exec {
namespace parallel {

using adaptive::LeftMode;
using adaptive::RightMode;

JoinShard::JoinShard(uint32_t index, const join::JoinSpec& spec,
                     const join::ApproxProbeOptions& approx_options,
                     adaptive::ProcessorState initial_state)
    : index_(index),
      spec_(spec),
      approx_options_(approx_options),
      core_(spec, approx_options) {
  // Empty stores: entering the initial state catches up nothing.
  core_.SetProbeMode(exec::Side::kLeft, LeftMode(initial_state));
  core_.SetProbeMode(exec::Side::kRight, RightMode(initial_state));
}

void JoinShard::BindSchemas(const storage::Schema* left,
                            const storage::Schema* right) {
  pending_rows_[0].Reset(left);
  pending_rows_[1].Reset(right);
  epoch_rows_[0].Reset(left);
  epoch_rows_[1].Reset(right);
}

void JoinShard::RouteRow(exec::Side side, const storage::ColumnBatch& src,
                         size_t src_row, uint64_t seq,
                         uint32_t side_ordinal) {
  const size_t s = static_cast<size_t>(side);
  RoutedRow meta;
  meta.side = side;
  meta.local_id = static_cast<storage::TupleId>(seq_[s].size());
  meta.row = static_cast<uint32_t>(pending_rows_[s].size());
  meta.seq = seq;
  seq_[s].push_back(seq);
  ordinal_[s].push_back(side_ordinal);
  // Column scatter: the row's slices (and its key-lane hash) land in
  // the shard's pending batch; no Tuple object is ever constructed.
  pending_rows_[s].AppendRowFrom(src, src_row);
  pending_meta_.push_back(meta);
}

std::string_view JoinShard::PendingJoinKey(exec::Side side,
                                          storage::TupleId local_id) const {
  const size_t s = static_cast<size_t>(side);
  // The pending rows of a side are its last routed ids, in id order.
  const size_t first_pending = seq_[s].size() - pending_rows_[s].size();
  assert(local_id >= first_pending && local_id < seq_[s].size());
  return pending_rows_[s].StringAt(spec_.column(side),
                                   local_id - first_pending);
}

void JoinShard::DiscardPending() {
  size_t dropped[2] = {0, 0};
  for (const RoutedRow& routed : pending_meta_) {
    ++dropped[static_cast<size_t>(routed.side)];
  }
  for (size_t s = 0; s < 2; ++s) {
    // Routed ids are assigned densely at RouteRow, so the pending rows
    // of a side are exactly the trailing entries of its maps.
    seq_[s].resize(seq_[s].size() - dropped[s]);
    ordinal_[s].resize(ordinal_[s].size() - dropped[s]);
    pending_rows_[s].Clear();
  }
  pending_meta_.clear();
}

void JoinShard::BeginEpoch() {
  for (size_t s = 0; s < 2; ++s) {
    std::swap(epoch_rows_[s], pending_rows_[s]);
    pending_rows_[s].Clear();
  }
  epoch_meta_.clear();
  std::swap(epoch_meta_, pending_meta_);
  step_outputs_.clear();
  matches_.clear();
  cross_step_outputs_.clear();
  cross_matches_.clear();
}

void JoinShard::RunBuildPhase() {
  // Worker-thread context: a fired fault throws and is contained by
  // the thread pool as the task group's sticky error.
  AQP_FAILPOINT_THROW(fail::site::kShardPhaseA);
  for (const RoutedRow& routed : epoch_meta_) {
    StepOutputs step;
    step.seq = routed.seq;
    step.begin = static_cast<uint32_t>(matches_.size());
    core_.ProcessRowInto(routed.side,
                         epoch_rows_[static_cast<size_t>(routed.side)],
                         routed.row, &matches_);
    step.end = static_cast<uint32_t>(matches_.size());
    step_outputs_.push_back(step);
  }
}

void JoinShard::RunCrossProbePhase(const std::vector<JoinShard*>& shards) {
  if (shards.size() <= 1) return;
  AQP_FAILPOINT_THROW(fail::site::kShardPhaseB);
  for (const RoutedRow& routed : epoch_meta_) {
    if (core_.probe_mode(routed.side) != join::ProbeMode::kApproximate) {
      continue;
    }
    const exec::Side stored_side = exec::OtherSide(routed.side);
    const size_t stored_idx = static_cast<size_t>(stored_side);
    const storage::TupleStore& own_store = core_.store(routed.side);
    const text::GramSet& probe_grams = own_store.Grams(routed.local_id);
    // Gram-less probes match by string equality only — equal strings
    // share a hash and therefore a shard, so no cross-shard work.
    if (probe_grams.empty()) continue;
    const std::string_view probe_key = own_store.JoinKey(routed.local_id);
    // The probe's phase-A step ranked its ordered prefix (every shard
    // shares one gram order), so phase B only reads the lane.
    const text::PrefixView probe_prefix =
        own_store.prefix_rule() != nullptr
            ? own_store.FilledPrefix(routed.local_id)
            : text::PrefixView();

    StepOutputs step;
    step.seq = routed.seq;
    step.begin = static_cast<uint32_t>(cross_matches_.size());
    for (JoinShard* other : shards) {
      if (other == this) continue;
      cross_tmp_.clear();
      join::ProbeApproximateInto(
          other->core_.qgram_index(stored_side),
          other->core_.store(stored_side), probe_key, probe_grams,
          probe_prefix, spec_, routed.side, routed.local_id, approx_options_,
          &cross_scratch_, &cross_stats_, &cross_tmp_);
      for (const join::JoinMatch& m : cross_tmp_) {
        // Sequence gate: the single-threaded join would only have
        // indexed tuples that arrived before this probe's step.
        if (other->seq_[stored_idx][m.stored_id] >= routed.seq) continue;
        cross_matches_.push_back(CrossMatch{m, other->index_});
      }
    }
    step.end = static_cast<uint32_t>(cross_matches_.size());
    if (step.end != step.begin) {
      cross_step_outputs_.push_back(step);
    }
  }
}

uint64_t JoinShard::ApproximateMemoryUsage() const {
  uint64_t bytes = core_.ApproximateMemoryUsage();
  for (size_t s = 0; s < 2; ++s) {
    bytes += pending_rows_[s].ApproximateMemoryUsage();
    bytes += epoch_rows_[s].ApproximateMemoryUsage();
    bytes += seq_[s].capacity() * sizeof(uint64_t);
    bytes += ordinal_[s].capacity() * sizeof(uint32_t);
  }
  bytes += pending_meta_.capacity() * sizeof(RoutedRow);
  bytes += epoch_meta_.capacity() * sizeof(RoutedRow);
  bytes += step_outputs_.capacity() * sizeof(StepOutputs);
  bytes += matches_.capacity() * sizeof(join::JoinMatch);
  bytes += cross_step_outputs_.capacity() * sizeof(StepOutputs);
  bytes += cross_matches_.capacity() * sizeof(CrossMatch);
  bytes += cross_tmp_.capacity() * sizeof(join::JoinMatch);
  bytes += cross_scratch_.ApproximateMemoryUsage();
  return bytes;
}

std::pair<uint64_t, uint64_t> JoinShard::ApplyState(
    adaptive::ProcessorState state) {
  const uint64_t left =
      core_.SetProbeMode(exec::Side::kLeft, LeftMode(state));
  const uint64_t right =
      core_.SetProbeMode(exec::Side::kRight, RightMode(state));
  return {left, right};
}

}  // namespace parallel
}  // namespace exec
}  // namespace aqp
