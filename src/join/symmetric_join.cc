#include "join/symmetric_join.h"

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"

namespace aqp {
namespace join {

SymmetricJoin::SymmetricJoin(exec::Operator* left, exec::Operator* right,
                             SymmetricJoinOptions options,
                             ProbeMode initial_left_mode,
                             ProbeMode initial_right_mode, std::string name)
    : left_(left),
      right_(right),
      options_(std::move(options)),
      name_(std::move(name)),
      core_(options_.spec, options_.approx),
      scheduler_(options_.interleave, options_.left_size_hint,
                 options_.right_size_hint),
      output_schema_() {
  if (options_.batch_size == 0) options_.batch_size = 1;
  core_.SetProbeMode(exec::Side::kLeft, initial_left_mode);
  core_.SetProbeMode(exec::Side::kRight, initial_right_mode);
}

Status SymmetricJoin::Open() {
  if (open_) return Status::FailedPrecondition(name_ + " already open");
  AQP_RETURN_IF_ERROR(options_.spec.ValidateAgainstSchemas(
      left_->output_schema(), right_->output_schema()));
  AQP_RETURN_IF_ERROR(left_->Open());
  exec::OpenGuard left_guard(left_);
  AQP_RETURN_IF_ERROR(right_->Open());
  exec::OpenGuard right_guard(right_);
  output_schema_ = JoinOutputSchema(left_->output_schema(),
                                    right_->output_schema(),
                                    options_.emit_similarity);
  left_width_ = left_->output_schema().num_fields();
  left_guard.Dismiss();
  right_guard.Dismiss();
  open_ = true;
  left_done_ = false;
  right_done_ = false;
  core_.ReserveStores(options_.left_size_hint, options_.right_size_hint);
  pending_.clear();
  for (size_t i = 0; i < 2; ++i) {
    input_batch_[i].Reset(nullptr, options_.batch_size);
    input_pos_[i] = 0;
    input_base_[i] = core_.store(static_cast<exec::Side>(i)).size();
  }
  return Status::OK();
}

size_t SymmetricJoin::SetProbeMode(exec::Side side, ProbeMode mode) {
  // The catch-up posts the other side's stored tuples into its q-gram
  // index, possibly the core's first q-gram insert. With nothing stored
  // yet it posts nothing, and the step path freezes the order once
  // rows have been pulled.
  if (mode == ProbeMode::kApproximate &&
      core_.store(exec::OtherSide(side)).size() > 0) {
    InstallDerivedGramOrder();
  }
  return core_.SetProbeMode(side, mode);
}

void SymmetricJoin::InstallDerivedGramOrder() {
  if (!core_.needs_gram_order()) return;
  GramOrderSampler sampler(options_.spec.qgram);
  for (exec::Side side : {exec::Side::kLeft, exec::Side::kRight}) {
    const size_t i = static_cast<size_t>(side);
    const storage::TupleStore& store = core_.store(side);
    bool more = true;
    for (size_t id = 0; more && id < store.size(); ++id) {
      more = sampler.Add(side,
                         store.JoinKey(static_cast<storage::TupleId>(id)));
    }
    const size_t column = options_.spec.column(side);
    for (size_t row = store.size() - input_base_[i];
         more && row < input_batch_[i].size(); ++row) {
      more = sampler.Add(side, input_batch_[i].StringAt(column, row));
    }
  }
  core_.InstallGramOrder(sampler.Finish());
}

storage::Tuple SymmetricJoin::MaterializeRow(const MatchRef& ref) const {
  const storage::TupleStore& l = core_.store(exec::Side::kLeft);
  const storage::TupleStore& r = core_.store(exec::Side::kRight);
  std::vector<storage::Value> values;
  values.reserve(l.num_columns() + r.num_columns() +
                 (options_.emit_similarity ? 1 : 0));
  l.AppendValuesTo(ref.left_id(), &values);
  r.AppendValuesTo(ref.right_id(), &values);
  if (options_.emit_similarity) {
    values.emplace_back(ref.similarity);
  }
  return storage::Tuple(std::move(values));
}

void SymmetricJoin::MaterializeInto(const MatchBatch& matches,
                                    storage::TupleBatch* out) const {
  for (const MatchRef& ref : matches) {
    out->Append(MaterializeRow(ref));
  }
}

void SymmetricJoin::MaterializeRefInto(const MatchRef& ref,
                                       storage::ColumnBatch* out) const {
  core_.store(exec::Side::kLeft).AppendCellsTo(ref.left_id(), out, 0);
  core_.store(exec::Side::kRight)
      .AppendCellsTo(ref.right_id(), out, left_width_);
  if (options_.emit_similarity) {
    out->AppendDouble(output_schema_.num_fields() - 1, ref.similarity);
  }
  out->CommitRow();
}

void SymmetricJoin::MaterializeInto(const MatchBatch& matches,
                                    storage::ColumnBatch* out) const {
  for (const MatchRef& ref : matches) {
    MaterializeRefInto(ref, out);
  }
}

Status SymmetricJoin::RefillInput(exec::Side side) {
  const size_t i = static_cast<size_t>(side);
  exec::Operator* input = side == exec::Side::kLeft ? left_ : right_;
  input_batch_[i].Reset(&input->output_schema(), options_.batch_size);
  input_pos_[i] = 0;
  input_base_[i] = core_.store(side).size();
  // Child time is excluded from the step-batch clock (see
  // RunStepBatch): the §4.3 weight calibration prices join work, not
  // the children.
  Timer timer;
  Status status = input->NextColumnBatch(&input_batch_[i]);
  refill_excluded_ns_ += timer.ElapsedNanos();
  if (status.ok() && !input_batch_[i].empty()) {
    // One vectorized hash pass per refill: every step reads its key
    // hash from the lane, and the store caches it without re-hashing.
    // Deliberately *outside* the excluded window — key hashing is join
    // work (the row engine hashed inside the timed step at store Add),
    // so it must stay priced into the step batch's elapsed_ns.
    input_batch_[i].ComputeKeyHashes(options_.spec.column(side));
  }
  return status;
}

Result<bool> SymmetricJoin::PullNextInput(exec::Side* side, size_t* row) {
  while (true) {
    auto next_side = scheduler_.NextSide(left_done_, right_done_);
    if (!next_side.has_value()) return false;
    const size_t i = static_cast<size_t>(*next_side);
    if (input_pos_[i] >= input_batch_[i].size()) {
      AQP_RETURN_IF_ERROR(RefillInput(*next_side));
      if (input_batch_[i].empty()) {
        // The child's empty batch is end-of-stream, discovered at the
        // same read index as under tuple-at-a-time execution (the
        // buffer drains exactly when the old path would have read the
        // tuple after the last).
        if (*next_side == exec::Side::kLeft) {
          left_done_ = true;
        } else {
          right_done_ = true;
        }
        continue;
      }
    }
    *side = *next_side;
    *row = input_pos_[i]++;
    return true;
  }
}

Result<bool> SymmetricJoin::StepOnce(MatchBatch* out) {
  exec::Side side = exec::Side::kLeft;
  size_t row = 0;
  auto pulled = PullNextInput(&side, &row);
  if (!pulled.ok()) return pulled.status();
  if (!*pulled) return false;
  scheduler_.OnRead(side);
  if (core_.needs_gram_order() &&
      core_.probe_mode(exec::OtherSide(side)) == ProbeMode::kApproximate) {
    // This step posts the core's first q-gram entry (the side's index
    // is live for the other side's approximate probes): freeze the
    // order now, from what has been pulled, this row included.
    InstallDerivedGramOrder();
  }
  match_scratch_.clear();
  core_.ProcessRowInto(side, input_batch_[static_cast<size_t>(side)], row,
                       &match_scratch_);
  ++steps_;
  StepObservables obs;
  // §3.3 attribution snapshots the matched-exactly flags now; by the
  // end of the batch later steps will have mutated them.
  core_.AttributeApproxMatches(side, match_scratch_, obs.approx_attributed);
  batch_stats_.steps.push_back(obs);
  for (const JoinMatch& m : match_scratch_) {
    if (out != nullptr && !out->full()) {
      out->Append(m);
    } else {
      pending_.push_back(m);
    }
  }
  return true;
}

Status SymmetricJoin::RunStepBatch(MatchBatch* out, uint64_t max_steps,
                                   bool* exhausted) {
  batch_stats_.Clear();
  uint64_t executed = 0;
  // One clock pair per batch, not per step: child refill time (tracked
  // by RefillInput) is subtracted so elapsed_ns remains the batch's
  // core join work.
  refill_excluded_ns_ = 0;
  Timer timer;
  while (executed < max_steps) {
    if (out != nullptr && out->full()) break;
    auto stepped = StepOnce(out);
    if (!stepped.ok()) return stepped.status();
    if (!*stepped) {
      *exhausted = true;
      break;
    }
    ++executed;
  }
  if (executed > 0) {
    batch_stats_.elapsed_ns = timer.ElapsedNanos() - refill_excluded_ns_;
    if (batch_stats_.elapsed_ns < 0) batch_stats_.elapsed_ns = 0;
    OnBatchCompleted(batch_stats_);
  }
  return Status::OK();
}

Status SymmetricJoin::NextMatchBatch(MatchBatch* out) {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  out->Clear();
  // Refs spilled by a previous over-producing step go out first.
  while (!pending_.empty() && !out->full()) {
    out->Append(pending_.front());
    pending_.pop_front();
  }
  bool exhausted = false;
  while (!out->full() && !exhausted) {
    // Batch boundary: quiescent by construction.
    AQP_RETURN_IF_ERROR(OnQuiescentPoint());
    // Round the batch edge to the subclass's next control point, so
    // the control loop activates at the same step counts as under
    // tuple-at-a-time execution regardless of batch_size.
    const uint64_t bound = StepsUntilControlPoint();
    const uint64_t max_steps =
        std::min<uint64_t>(bound, options_.batch_size);
    AQP_RETURN_IF_ERROR(
        RunStepBatch(out, std::max<uint64_t>(1, max_steps), &exhausted));
  }
  return Status::OK();
}

Result<size_t> SymmetricJoin::AdvanceUnmaterialized(size_t max_rows) {
  adapter_batch_.Reset(max_rows == 0 ? 1 : max_rows);
  AQP_RETURN_IF_ERROR(NextMatchBatch(&adapter_batch_));
  return adapter_batch_.size();
}

Result<std::optional<storage::Tuple>> SymmetricJoin::Next() {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  while (pending_.empty()) {
    // Quiescent: the previous tuple's matches are fully enumerated.
    AQP_RETURN_IF_ERROR(OnQuiescentPoint());
    bool exhausted = false;
    // One-step batches keep the tuple-at-a-time contract (a quiescent
    // point before every step) on the shared batched machinery.
    AQP_RETURN_IF_ERROR(RunStepBatch(nullptr, 1, &exhausted));
    if (exhausted) return std::optional<storage::Tuple>();
  }
  // Materialize at delivery: rows never exist before a consumer asks.
  storage::Tuple out = MaterializeRow(pending_.front());
  pending_.pop_front();
  return std::optional<storage::Tuple>(std::move(out));
}

template <typename Batch>
Status SymmetricJoin::FillBatch(Batch* out) {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  out->Reset(&output_schema_);
  // Refs spilled by a previous over-producing step go out first. They
  // are erased only after the whole call succeeds: on error the
  // partial batch is discarded (Operator contract) and the refs stay
  // deliverable, exactly as a failing Next() drive would leave them.
  size_t drained = 0;
  while (drained < pending_.size() && !out->full()) {
    EmitRef(pending_[drained++], out);
  }
  bool exhausted = false;
  while (!out->full() && !exhausted) {
    // Batch boundary: quiescent by construction.
    Status step_status = OnQuiescentPoint();
    if (step_status.ok()) {
      // Round the batch edge to the subclass's next control point, so
      // the control loop activates at the same step counts as under
      // tuple-at-a-time execution regardless of batch_size.
      const uint64_t bound = StepsUntilControlPoint();
      const uint64_t max_steps =
          std::min<uint64_t>(bound, options_.batch_size);
      adapter_batch_.Reset(out->capacity() - out->size());
      step_status = RunStepBatch(&adapter_batch_,
                                 std::max<uint64_t>(1, max_steps),
                                 &exhausted);
    }
    if (!step_status.ok()) {
      out->Clear();
      return step_status;
    }
    MaterializeInto(adapter_batch_, out);
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(drained));
  return Status::OK();
}

// Native columnar delivery: output columns are written straight from
// the stores — no row payload is ever constructed.
Status SymmetricJoin::NextColumnBatch(storage::ColumnBatch* out) {
  return FillBatch(out);
}

// Row-protocol compatibility adapter: rows are built exactly once, at
// the sink boundary.
Status SymmetricJoin::NextBatch(storage::TupleBatch* out) {
  return FillBatch(out);
}

Status SymmetricJoin::Close() {
  if (!open_) return Status::FailedPrecondition(name_ + " not open");
  open_ = false;
  AQP_RETURN_IF_ERROR(left_->Close());
  AQP_RETURN_IF_ERROR(right_->Close());
  return Status::OK();
}

}  // namespace join
}  // namespace aqp
