#include "exec/parallel/parallel_join.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "exec/csv_io.h"
#include "exec/prefetch.h"

namespace aqp {
namespace exec {
namespace parallel {

using adaptive::AdaptivePolicy;
using adaptive::Assessment;
using adaptive::Decision;
using adaptive::LeftMode;
using adaptive::ProcessorState;
using adaptive::RightMode;

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

size_t ResolveShardCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<unsigned>(hw == 0 ? 1 : hw, 64));
}

/// True iff a fault of this code may be degraded into an early
/// finalization. Internal errors signal broken invariants (the global
/// state cannot be trusted), cancellation is a teardown order, and a
/// failed precondition is a caller bug — none of those produce a
/// result worth delivering.
bool RecoverableFaultCode(const Status& status) {
  return !status.IsInternal() && !status.IsCancelled() &&
         !status.IsFailedPrecondition();
}

/// Pulls the "site=<name>" breadcrumb out of an injected fault's
/// message (empty when the error carries none).
std::string ExtractFaultSite(const Status& status) {
  const std::string& message = status.message();
  const size_t pos = message.find("site=");
  if (pos == std::string::npos) return "";
  size_t end = pos + 5;
  while (end < message.size() && message[end] != ':' &&
         message[end] != ' ') {
    ++end;
  }
  return message.substr(pos + 5, end - (pos + 5));
}

}  // namespace

ParallelAdaptiveJoin::ParallelAdaptiveJoin(exec::Operator* left,
                                           exec::Operator* right,
                                           ParallelJoinOptions options)
    : left_(left),
      right_(right),
      options_(std::move(options)),
      cost_(options_.base.weights),
      state_(options_.base.adaptive.initial_state) {
  options_.num_shards = ResolveShardCount(options_.num_shards);
  if (options_.unbounded_epoch_steps == 0) {
    options_.unbounded_epoch_steps = 4096;
  }
  monitor_ = std::make_unique<adaptive::Monitor>(options_.base.adaptive);
  assessor_ = std::make_unique<adaptive::Assessor>(options_.base.adaptive);
  responder_ = std::make_unique<adaptive::Responder>(options_.base.adaptive);
}

Status ParallelAdaptiveJoin::Open() {
  if (open_) return Status::FailedPrecondition(name() + " already open");
  AQP_RETURN_IF_ERROR(options_.base.adaptive.Validate());
  const join::SymmetricJoinOptions& join_options = options_.base.join;
  AQP_RETURN_IF_ERROR(join_options.spec.ValidateAgainstSchemas(
      left_->output_schema(), right_->output_schema()));
  AQP_RETURN_IF_ERROR(left_->Open());
  exec::OpenGuard left_guard(left_);
  AQP_RETURN_IF_ERROR(right_->Open());
  exec::OpenGuard right_guard(right_);
  // Both children are open and guarded: an error returned here must
  // close them both (the OpenGuard regression surface).
  AQP_FAILPOINT(fail::site::kParallelOpen);
  output_schema_ =
      join::JoinOutputSchema(left_->output_schema(), right_->output_schema(),
                             join_options.emit_similarity);
  left_width_ = left_->output_schema().num_fields();

  const size_t n = options_.num_shards;
  shards_.clear();
  shard_ptrs_.clear();
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<JoinShard>(
        static_cast<uint32_t>(i), join_options.spec, join_options.approx,
        state_));
    shards_.back()->BindSchemas(&left_->output_schema(),
                                &right_->output_schema());
    // Per-shard share of the size hints (slack for hash skew).
    shards_.back()->ReserveStores(
        join_options.left_size_hint == 0
            ? 0
            : join_options.left_size_hint / n + join_options.left_size_hint / (2 * n) + 1,
        join_options.right_size_hint == 0
            ? 0
            : join_options.right_size_hint / n + join_options.right_size_hint / (2 * n) + 1);
    shard_ptrs_.push_back(shards_.back().get());
  }
  exchange_ = std::make_unique<RadixExchange>(
      left_, right_, join_options.spec, join_options.interleave,
      join_options.left_size_hint, join_options.right_size_hint,
      join_options.batch_size, n, options_.source_retry);
  exchange_->Reset();
  if (options_.shared_pool != nullptr) {
    // Serving mode: phase task groups go to the injected pool, which
    // interleaves them fairly with other queries' groups.
    active_pool_ = options_.shared_pool;
  } else if (n > 1) {
    // The coordinator participates in every phase group, so n - 1
    // workers give exactly n execution lanes for n per-shard tasks.
    pool_ = std::make_unique<ThreadPool>(n - 1);
    active_pool_ = pool_.get();
  } else {
    pool_ = nullptr;
    active_pool_ = nullptr;
  }

  merge_cursor_.assign(n, 0);
  cross_cursor_.assign(n, 0);
  for (size_t s = 0; s < 2; ++s) {
    matched_exactly_[s].clear();
    matched_any_[s].clear();
    matched_any_count_[s] = 0;
  }
  pairs_emitted_ = 0;
  exact_pairs_ = 0;
  approximate_pairs_ = 0;
  out_buffer_.clear();
  out_pos_ = 0;
  stream_done_ = false;
  exact_only_ = false;
  finalize_requested_ = false;
  finalized_early_ = false;
  epoch_ = 0;
  fault_.reset();
  pump_error_ = Status::OK();
  last_assessment_step_ = 0;
  script_position_ = 0;
  ingest_stats_ = IngestStats();
  shard_nodes_.clear();
  coord_node_.reset();
  if (options_.memory_budget != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      shard_nodes_.push_back(std::make_unique<mem::BudgetNode>(
          "shard" + std::to_string(i), options_.memory_budget));
    }
    coord_node_ = std::make_unique<mem::BudgetNode>("coordinator",
                                                    options_.memory_budget);
  }
  memory_bytes_ = 0;
  peak_memory_bytes_ = 0;
  left_guard.Dismiss();
  right_guard.Dismiss();
  open_ = true;
  return Status::OK();
}

Status ParallelAdaptiveJoin::Close() {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  open_ = false;
  pool_.reset();
  active_pool_ = nullptr;
  AQP_RETURN_IF_ERROR(left_->Close());
  AQP_RETURN_IF_ERROR(right_->Close());
  return Status::OK();
}

uint64_t ParallelAdaptiveJoin::StepsToNextControlPoint() const {
  const adaptive::AdaptiveOptions& adaptive = options_.base.adaptive;
  const uint64_t steps = exchange_->steps();
  switch (adaptive.policy) {
    case AdaptivePolicy::kPinned:
      return options_.unbounded_epoch_steps;
    case AdaptivePolicy::kScripted: {
      if (script_position_ >= adaptive.script.size()) {
        return options_.unbounded_epoch_steps;
      }
      const uint64_t at = adaptive.script[script_position_].at_step;
      return at > steps ? at - steps : 1;
    }
    case AdaptivePolicy::kAdaptive: {
      const uint64_t boundary = last_assessment_step_ + adaptive.delta_adapt;
      return boundary > steps ? boundary - steps : 1;
    }
  }
  return options_.unbounded_epoch_steps;
}

Status ParallelAdaptiveJoin::ControlPoint() {
  const adaptive::AdaptiveOptions& adaptive = options_.base.adaptive;
  const uint64_t steps = exchange_->steps();
  switch (adaptive.policy) {
    case AdaptivePolicy::kPinned:
      return Status::OK();
    case AdaptivePolicy::kScripted: {
      while (script_position_ < adaptive.script.size() &&
             adaptive.script[script_position_].at_step <= steps) {
        const ProcessorState next = adaptive.script[script_position_].state;
        ++script_position_;
        if (next != state_) {
          Assessment empty;
          empty.step = steps;
          AQP_RETURN_IF_ERROR(ApplyTransition(next, empty, -1));
        }
      }
      return Status::OK();
    }
    case AdaptivePolicy::kAdaptive:
      if (steps > 0 && steps - last_assessment_step_ >= adaptive.delta_adapt) {
        return RunControlLoop();
      }
      return Status::OK();
  }
  return Status::OK();
}

stats::JoinProgress ParallelAdaptiveJoin::Progress() const {
  const adaptive::AdaptiveOptions& adaptive = options_.base.adaptive;
  const exec::Side child_side = exec::OtherSide(adaptive.parent_side);
  // The global join progress the single-threaded monitor would read
  // off its one core, aggregated across shards by the coordinator.
  stats::JoinProgress progress;
  progress.parents_scanned = exchange_->side_count(adaptive.parent_side);
  progress.children_scanned = exchange_->side_count(child_side);
  progress.children_matched =
      adaptive.use_pairs_statistic
          ? pairs_emitted_
          : matched_any_count_[static_cast<size_t>(child_side)];
  progress.parent_exhausted = exchange_->input_exhausted(adaptive.parent_side);
  return progress;
}

CompletenessStats ParallelAdaptiveJoin::Completeness() const {
  CompletenessStats out;
  if (exchange_ == nullptr) return out;
  const stats::JoinProgress progress = Progress();
  out.expected_matches = assessor_->model().ExpectedMatches(progress);
  out.observed_matches = progress.children_matched;
  out.ratio = out.expected_matches > 0.0
                  ? std::min(1.0, static_cast<double>(out.observed_matches) /
                                      out.expected_matches)
                  : 1.0;
  // CSV feeds report quarantined (skipped-and-logged) records so a
  // "complete" scan over a dirty file is never silently lossy.
  for (const exec::Operator* child : {left_, right_}) {
    if (const auto* csv = dynamic_cast<const exec::CsvSource*>(child)) {
      out.quarantined_rows += csv->bad_rows();
    }
  }
  return out;
}

Status ParallelAdaptiveJoin::RunControlLoop() {
  last_assessment_step_ = exchange_->steps();
  const stats::JoinProgress progress = Progress();
  const Assessment assessment = assessor_->Assess(*monitor_, progress);
  Decision decision = responder_->Decide(state_, assessment);
  if (exact_only_ && decision.next != ProcessorState::kLexRex) {
    // Past the soft deadline the responder may not choose approximate
    // states; the PumpEpoch clamp already forced lex/rex, so this can
    // only turn a would-be switch into a stay.
    decision.next = ProcessorState::kLexRex;
    decision.phi = Decision::kDeadlineClamp;
  }
  if (decision.phi == Decision::kFutilityRevert) {
    const double deficit =
        assessment.expected_matches -
        static_cast<double>(assessment.observed_matches);
    assessor_->ConcedeDeficit(
        static_cast<uint64_t>(std::max(0.0, std::ceil(deficit))));
  }
  if (decision.next != state_) {
    return ApplyTransition(decision.next, assessment, decision.phi);
  } else if (options_.base.record_trace) {
    adaptive::AssessmentRecord record;
    record.assessment = assessment;
    record.state_before = state_;
    record.state_after = state_;
    record.phi = decision.phi;
    trace_.Record(std::move(record));
  }
  return Status::OK();
}

Status ParallelAdaptiveJoin::ApplyTransition(ProcessorState next,
                                             const Assessment& assessment,
                                             int phi) {
  adaptive::AssessmentRecord record;
  record.assessment = assessment;
  record.state_before = state_;
  record.state_after = next;
  record.phi = phi;
  // Broadcast: every shard enters the new state at the epoch barrier,
  // catching up its own lagging structures in parallel. The summed
  // per-shard catch-up counts equal the single-threaded engine's,
  // because the shard stores partition the global store and every
  // shard last switched at the same global boundary.
  std::vector<std::pair<uint64_t, uint64_t>> catchups(shards_.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    JoinShard* shard = shard_ptrs_[i];
    auto* slot = &catchups[i];
    tasks.push_back([shard, next, slot] { *slot = shard->ApplyState(next); });
  }
  Status broadcast = RunTasks(std::move(tasks));
  if (!broadcast.ok()) {
    // Some shards switched, some did not: the safe-state-transfer
    // invariant is broken and no epoch may run on the mixed states.
    // Never degradable — the caller makes this the sticky pump error.
    return Status::Internal("state-transition broadcast failed: " +
                            broadcast.ToString());
  }
  for (const auto& [left, right] : catchups) {
    record.catchup_left += left;
    record.catchup_right += right;
  }
  state_ = next;
  cost_.AddTransition(next);
  if (options_.base.record_trace) {
    trace_.Record(std::move(record));
  }
  return Status::OK();
}

Status ParallelAdaptiveJoin::PumpEpoch(bool* stream_ended) {
  *stream_ended = false;
  if (!pump_error_.ok()) return pump_error_;
  // Epoch boundary: every shard is quiescent — safe for adaptation,
  // deadline enforcement, and teardown alike. Budgeted runs charge
  // their accounting tree first, so the governor's view (and any
  // soft/hard budget decision it takes) sees this control point's
  // footprint, not the previous one's.
  if (options_.memory_budget != nullptr) {
    Status charged = RefreshMemoryAccounting();
    if (!charged.ok()) {
      // An injected charge fault (`budget.charge`) degrades like any
      // recoverable epoch fault; route_ was cleared after the last
      // merge, so there is nothing to roll back.
      return HandleEpochFault(std::move(charged), /*shard=*/-1,
                              stream_ended);
    }
  }
  if (options_.governor) {
    EpochView view;
    view.steps = exchange_->steps();
    view.pairs_emitted = pairs_emitted_;
    view.state = state_;
    view.memory_bytes = memory_bytes_;
    switch (options_.governor(view)) {
      case EpochDirective::kProceed:
        break;
      case EpochDirective::kForceExactOnly:
        exact_only_ = true;
        break;
      case EpochDirective::kFinalize:
        finalize_requested_ = true;
        break;
      case EpochDirective::kCancel:
        // Buffered output is not delivered.
        pump_error_ = Status::Cancelled(name() + " cancelled at step " +
                                        std::to_string(exchange_->steps()));
        return pump_error_;
    }
  }
  if (finalize_requested_) {
    finalized_early_ = finalized_early_ ||
                       !exchange_->input_exhausted(exec::Side::kLeft) ||
                       !exchange_->input_exhausted(exec::Side::kRight);
    *stream_ended = true;
    stream_done_ = true;
    UpdateMemoryAccounting();
    return Status::OK();
  }
  Status control = ControlPoint();
  if (!control.ok()) {
    // A failed catch-up broadcast leaves shard probe states mixed —
    // never degradable (see ApplyTransition).
    pump_error_ =
        control.WithContext("epoch=" + std::to_string(epoch_));
    return pump_error_;
  }
  if (exact_only_ && state_ != ProcessorState::kLexRex) {
    // Soft-deadline clamp: enter the cheapest exact state before any
    // step of this epoch runs (RunControlLoop keeps it pinned there).
    Assessment forced;
    forced.step = exchange_->steps();
    Status clamped = ApplyTransition(ProcessorState::kLexRex, forced,
                                     Decision::kDeadlineClamp);
    if (!clamped.ok()) {
      pump_error_ =
          clamped.WithContext("epoch=" + std::to_string(epoch_));
      return pump_error_;
    }
  }
  const uint64_t budget = std::max<uint64_t>(1, StepsToNextControlPoint());
  route_.clear();
  const auto route_start = std::chrono::steady_clock::now();
  auto routed = exchange_->RouteEpoch(budget, shard_ptrs_, &route_);
  ingest_stats_.serial_route_ns += ElapsedNs(route_start);
  if (!routed.ok()) {
    // Mid-epoch routing failure: rows of the aborted epoch are already
    // scattered into the shards' pending batches, and the exchange's
    // scheduler position cannot be rewound. The epoch is abandoned
    // either way; on_fault decides between the sticky error and a
    // degraded partial-result finalization.
    return HandleEpochFault(routed.status(), /*shard=*/-1, stream_ended);
  }
  if (*routed == 0) {
    *stream_ended = true;
    stream_done_ = true;
    UpdateMemoryAccounting();
    return Status::OK();
  }
  if (epoch_ == 0) InstallDerivedGramOrder();
  for (JoinShard* shard : shard_ptrs_) shard->BeginEpoch();

  // Phase A: per-shard step loops over their partitions.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (JoinShard* shard : shard_ptrs_) {
    tasks.push_back([shard] { shard->RunBuildPhase(); });
  }
  int32_t failed_task = -1;
  Status phase = RunTasks(std::move(tasks), &failed_task);
  if (!phase.ok()) {
    // A shard died mid-ingest. Its store may hold a prefix of the
    // epoch's rows, but no ref or flag references them — output and
    // global state come only from *merged* epochs — so the completed
    // prefix is intact and degradable.
    return HandleEpochFault(std::move(phase), failed_task, stream_ended);
  }

  // Phase B: cross-shard approximate probes (only when some input
  // probes approximately; exact matches are intra-shard by radix
  // construction).
  const bool any_approx =
      LeftMode(state_) == join::ProbeMode::kApproximate ||
      RightMode(state_) == join::ProbeMode::kApproximate;
  if (any_approx && shards_.size() > 1) {
    tasks.clear();
    for (JoinShard* shard : shard_ptrs_) {
      auto* all = &shard_ptrs_;
      tasks.push_back([shard, all] { shard->RunCrossProbePhase(*all); });
    }
    failed_task = -1;
    phase = RunTasks(std::move(tasks), &failed_task);
    if (!phase.ok()) {
      return HandleEpochFault(std::move(phase), failed_task, stream_ended);
    }
  }

  // Coordinator merge-entry fault site: fires before the merge mutates
  // any global state, so it aborts the epoch like a phase fault.
  auto merge_entry = []() -> Status {
    AQP_FAILPOINT(fail::site::kExchangeMerge);
    return Status::OK();
  };
  Status merge_site = merge_entry();
  if (!merge_site.ok()) {
    return HandleEpochFault(std::move(merge_site), /*shard=*/-1,
                            stream_ended);
  }

  Status merged = MergeEpoch();
  if (!merged.ok()) {
    // A broken merge invariant means global state (flags, monitor) may
    // already be partially updated; no epoch may run after it and the
    // fault is never degradable.
    pump_error_ =
        merged.WithContext("epoch=" + std::to_string(epoch_));
    return pump_error_;
  }
  ++epoch_;
  // The merged epoch's route is spent: drop it now so a fault at the
  // *next* control point (a failed budget charge) cannot mistake its
  // already-counted, already-merged rows for an aborted epoch and
  // roll them back.
  route_.clear();
  return Status::OK();
}

void ParallelAdaptiveJoin::InstallDerivedGramOrder() {
  const adaptive::AdaptiveOptions& adaptive = options_.base.adaptive;
  if (adaptive.policy == AdaptivePolicy::kPinned &&
      adaptive.initial_state == ProcessorState::kLexRex) {
    return;  // never probes approximately: no q-gram index is built
  }
  if (!shard_ptrs_[0]->core().needs_gram_order()) return;
  join::GramOrderSampler sampler(options_.base.join.spec.qgram);
  for (const RouteEntry& entry : route_) {
    sampler.Add(entry.side, shard_ptrs_[entry.shard]->PendingJoinKey(
                                entry.side, entry.local_id));
  }
  exchange_->SampleUnrouted(&sampler);
  const std::shared_ptr<const text::GramOrder> order = sampler.Finish();
  for (JoinShard* shard : shard_ptrs_) {
    shard->mutable_core()->InstallGramOrder(order);
  }
}

Status ParallelAdaptiveJoin::HandleEpochFault(Status error, int32_t shard,
                                              bool* stream_ended) {
  // Abandon the epoch: discard rows still pending in the shards (a
  // routing fault scattered them without BeginEpoch) and roll the
  // exchange's counters back to the last completed epoch, so progress,
  // completeness, and ordinal bookkeeping all describe exactly the
  // epochs whose output was merged. The scheduler position cannot be
  // rewound, so no epoch may ever be routed again — either terminal
  // path below guarantees that.
  for (JoinShard* s : shard_ptrs_) s->DiscardPending();
  uint64_t aborted_rows[2] = {0, 0};
  for (const RouteEntry& entry : route_) {
    ++aborted_rows[static_cast<size_t>(entry.side)];
  }
  exchange_->RollbackCounts(route_.size(), aborted_rows[0], aborted_rows[1]);
  route_.clear();

  Status annotated = error.WithContext(
      "epoch=" + std::to_string(epoch_) +
      (shard >= 0 ? "/shard=" + std::to_string(shard) : ""));
  if (options_.on_fault == FaultPolicy::kFinalizePartial &&
      RecoverableFaultCode(error)) {
    // Graceful degradation: the fault becomes a hard-deadline-style
    // early finalization. Buffered output (a strict prefix of the
    // fault-free run) stays deliverable; the FaultReport says what was
    // tolerated and where.
    FaultReport report;
    report.site = ExtractFaultSite(error);
    report.epoch = epoch_;
    report.step = exchange_->steps();
    report.shard = shard;
    report.status = std::move(annotated);
    fault_ = std::move(report);
    finalized_early_ = true;
    stream_done_ = true;
    *stream_ended = true;
    UpdateMemoryAccounting();
    return Status::OK();
  }
  pump_error_ = std::move(annotated);
  return pump_error_;
}

Status ParallelAdaptiveJoin::RefreshMemoryAccounting() {
  // Injected charge failure: a backing allocator refusing the
  // accounting charge. Degrades through HandleEpochFault like any
  // recoverable control-point fault.
  AQP_FAILPOINT(fail::site::kBudgetCharge);
  UpdateMemoryAccounting();
  return Status::OK();
}

void ParallelAdaptiveJoin::UpdateMemoryAccounting() {
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t bytes = shards_[i]->ApproximateMemoryUsage();
    if (!shard_nodes_.empty()) shard_nodes_[i]->Refresh(bytes);
    total += bytes;
  }
  const uint64_t coord = CoordinatorMemoryUsage();
  if (coord_node_ != nullptr) coord_node_->Refresh(coord);
  total += coord;
  memory_bytes_ = total;
  if (total > peak_memory_bytes_) peak_memory_bytes_ = total;
}

uint64_t ParallelAdaptiveJoin::CoordinatorMemoryUsage() const {
  uint64_t bytes = exchange_ != nullptr ? exchange_->ApproximateMemoryUsage()
                                        : 0;
  // Prefetching children buffer source batches on their own producer
  // threads; their deques are part of this query's footprint.
  if (auto* prefetch = dynamic_cast<exec::PrefetchSource*>(left_)) {
    bytes += prefetch->ApproximateMemoryUsage();
  }
  if (auto* prefetch = dynamic_cast<exec::PrefetchSource*>(right_)) {
    bytes += prefetch->ApproximateMemoryUsage();
  }
  bytes += route_.capacity() * sizeof(RouteEntry);
  bytes += out_buffer_.capacity() * sizeof(ParallelMatchRef);
  bytes += merge_scratch_.capacity() * sizeof(MergedMatch);
  bytes += epoch_observables_.capacity() * sizeof(join::StepObservables);
  for (size_t s = 0; s < 2; ++s) {
    bytes += matched_exactly_[s].capacity() * sizeof(uint8_t);
    bytes += matched_any_[s].capacity() * sizeof(uint8_t);
  }
  return bytes;
}

uint64_t ParallelAdaptiveJoin::ApproximateMemoryUsage() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->ApproximateMemoryUsage();
  return total + CoordinatorMemoryUsage();
}

Status ParallelAdaptiveJoin::RunTasks(std::vector<std::function<void()>> tasks,
                                      int32_t* failed_task) {
  if (failed_task != nullptr) *failed_task = -1;
  if (active_pool_ != nullptr) {
    // One task group per phase; Wait()-participation keeps the
    // coordinator an execution lane, shared pool or not. A throwing
    // task is contained by the pool as the group's sticky error.
    TaskGroupHandle handle = active_pool_->Submit(std::move(tasks));
    Status status = handle.Wait();
    if (!status.ok() && failed_task != nullptr) {
      *failed_task = static_cast<int32_t>(handle.error_task());
    }
    return status;
  }
  // Inline (single shard, no pool): contain exactly like a worker.
  for (size_t i = 0; i < tasks.size(); ++i) {
    Status status = Status::OK();
    try {
      AQP_FAILPOINT_THROW(fail::site::kPoolTask);
      tasks[i]();
    } catch (const fail::InjectedFault& fault) {
      status = fault.status();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("task threw: ") + e.what());
    } catch (...) {
      status = Status::Internal("task threw a non-std::exception object");
    }
    if (!status.ok()) {
      if (failed_task != nullptr) *failed_task = static_cast<int32_t>(i);
      return status;
    }
  }
  return Status::OK();
}

Status ParallelAdaptiveJoin::MergeEpoch() {
  const uint64_t epoch_start = exchange_->steps() - route_.size();
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), 0);
  std::fill(cross_cursor_.begin(), cross_cursor_.end(), 0);
  epoch_observables_.clear();
  epoch_observables_.reserve(route_.size());

  // Size the global flag bitsets for every tuple routed so far.
  for (size_t s = 0; s < 2; ++s) {
    const size_t count = exchange_->side_count(static_cast<exec::Side>(s));
    matched_exactly_[s].resize(count, 0);
    matched_any_[s].resize(count, 0);
  }

  for (size_t i = 0; i < route_.size(); ++i) {
    const uint64_t seq = epoch_start + i;
    const RouteEntry& entry = route_[i];
    JoinShard* shard = shard_ptrs_[entry.shard];
    const exec::Side read_side = entry.side;
    const exec::Side stored_side = exec::OtherSide(read_side);
    const size_t read_idx = static_cast<size_t>(read_side);
    const size_t stored_idx = static_cast<size_t>(stored_side);

    merge_scratch_.clear();

    // Intra-shard matches of this step (phase A). The shard must have
    // produced exactly one StepOutputs per routed row, in routing
    // order — a mismatch would silently misattribute matches to the
    // wrong global steps, so it is checked in every build type.
    if (merge_cursor_[entry.shard] >= shard->step_outputs().size()) {
      return Status::Internal(
          "parallel join merge: shard " + std::to_string(entry.shard) +
          " produced " + std::to_string(shard->step_outputs().size()) +
          " phase-A steps but the route expects more (global step " +
          std::to_string(seq) + ")");
    }
    const StepOutputs& step =
        shard->step_outputs()[merge_cursor_[entry.shard]++];
    if (step.seq != seq) {
      return Status::Internal(
          "parallel join merge: phase-A outputs out of order on shard " +
          std::to_string(entry.shard) + " (got step " +
          std::to_string(step.seq) + ", expected " + std::to_string(seq) +
          ")");
    }
    for (uint32_t m = step.begin; m < step.end; ++m) {
      const join::JoinMatch& match = shard->matches()[m];
      MergedMatch merged;
      merged.probe_side = read_side;
      merged.probe_ordinal = entry.ordinal;
      merged.stored_ordinal = shard->side_ordinal(stored_side, match.stored_id);
      merged.ref.similarity = match.similarity;
      merged.ref.kind = match.kind;
      if (read_side == exec::Side::kLeft) {
        merged.ref.left_shard = entry.shard;
        merged.ref.left_id = match.probe_id;
        merged.ref.right_shard = entry.shard;
        merged.ref.right_id = match.stored_id;
      } else {
        merged.ref.left_shard = entry.shard;
        merged.ref.left_id = match.stored_id;
        merged.ref.right_shard = entry.shard;
        merged.ref.right_id = match.probe_id;
      }
      merge_scratch_.push_back(merged);
    }

    // Cross-shard matches of this step (phase B), if any.
    const auto& cross_steps = shard->cross_step_outputs();
    size_t& cross_cursor = cross_cursor_[entry.shard];
    if (cross_cursor < cross_steps.size() &&
        cross_steps[cross_cursor].seq == seq) {
      const StepOutputs& cross = cross_steps[cross_cursor++];
      for (uint32_t m = cross.begin; m < cross.end; ++m) {
        const CrossMatch& cm = shard->cross_matches()[m];
        const JoinShard* stored_shard = shard_ptrs_[cm.stored_shard];
        MergedMatch merged;
        merged.probe_side = read_side;
        merged.probe_ordinal = entry.ordinal;
        merged.stored_ordinal =
            stored_shard->side_ordinal(stored_side, cm.match.stored_id);
        merged.ref.similarity = cm.match.similarity;
        merged.ref.kind = cm.match.kind;
        if (read_side == exec::Side::kLeft) {
          merged.ref.left_shard = entry.shard;
          merged.ref.left_id = cm.match.probe_id;
          merged.ref.right_shard = cm.stored_shard;
          merged.ref.right_id = cm.match.stored_id;
        } else {
          merged.ref.left_shard = cm.stored_shard;
          merged.ref.left_id = cm.match.stored_id;
          merged.ref.right_shard = entry.shard;
          merged.ref.right_id = cm.match.probe_id;
        }
        merge_scratch_.push_back(merged);
      }
    }

    // Deterministic shard merge order == single-threaded output order:
    // every probe appends its matches sorted by stored id, and stored
    // ids in the one-store engine are exactly the per-side ordinals.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergedMatch& a, const MergedMatch& b) {
                return a.stored_ordinal < b.stored_ordinal;
              });

    // Replay the step against the global flags, exactly as the
    // single-threaded core does: flag/counter updates for the whole
    // step first, attribution afterwards (§3.3 snapshots the flags at
    // the end of the step).
    for (const MergedMatch& merged : merge_scratch_) {
      if (merged.ref.kind == join::MatchKind::kExact) {
        matched_exactly_[read_idx][merged.probe_ordinal] = 1;
        matched_exactly_[stored_idx][merged.stored_ordinal] = 1;
        ++exact_pairs_;
      } else {
        ++approximate_pairs_;
      }
      if (!matched_any_[read_idx][merged.probe_ordinal]) {
        matched_any_[read_idx][merged.probe_ordinal] = 1;
        ++matched_any_count_[read_idx];
      }
      if (!matched_any_[stored_idx][merged.stored_ordinal]) {
        matched_any_[stored_idx][merged.stored_ordinal] = 1;
        ++matched_any_count_[stored_idx];
      }
      ++pairs_emitted_;
      out_buffer_.push_back(merged.ref);
    }

    join::StepObservables obs;
    for (const MergedMatch& merged : merge_scratch_) {
      if (merged.ref.kind != join::MatchKind::kApproximate) continue;
      if (matched_exactly_[stored_idx][merged.stored_ordinal]) {
        ++obs.approx_attributed[read_idx];
      } else if (matched_exactly_[read_idx][merged.probe_ordinal]) {
        ++obs.approx_attributed[stored_idx];
      } else {
        ++obs.approx_attributed[read_idx];
        ++obs.approx_attributed[stored_idx];
      }
    }
    epoch_observables_.push_back(obs);
  }

  cost_.AddSteps(state_, route_.size());
  monitor_->OnBatch(epoch_observables_, state_);
  return Status::OK();
}

Status ParallelAdaptiveJoin::EnsureOutput(bool* have_output) {
  while (out_pos_ >= out_buffer_.size()) {
    // Fully drained: recycle the buffer before the next epoch fills it.
    out_buffer_.clear();
    out_pos_ = 0;
    ++buffer_generation_;
    if (stream_done_) {
      *have_output = false;
      return Status::OK();
    }
    bool stream_ended = false;
    AQP_RETURN_IF_ERROR(PumpEpoch(&stream_ended));
    if (stream_ended) {
      *have_output = false;
      return Status::OK();
    }
  }
  *have_output = true;
  return Status::OK();
}

storage::Tuple ParallelAdaptiveJoin::MaterializeRow(
    const ParallelMatchRef& ref) const {
  const storage::TupleStore& l =
      shards_[ref.left_shard]->core().store(exec::Side::kLeft);
  const storage::TupleStore& r =
      shards_[ref.right_shard]->core().store(exec::Side::kRight);
  std::vector<storage::Value> values;
  const bool with_sim = options_.base.join.emit_similarity;
  values.reserve(l.num_columns() + r.num_columns() + (with_sim ? 1 : 0));
  l.AppendValuesTo(ref.left_id, &values);
  r.AppendValuesTo(ref.right_id, &values);
  if (with_sim) {
    values.emplace_back(ref.similarity);
  }
  return storage::Tuple(std::move(values));
}

void ParallelAdaptiveJoin::MaterializeRefInto(
    const ParallelMatchRef& ref, storage::ColumnBatch* out) const {
  shards_[ref.left_shard]->core().store(exec::Side::kLeft).AppendCellsTo(
      ref.left_id, out, 0);
  shards_[ref.right_shard]->core().store(exec::Side::kRight).AppendCellsTo(
      ref.right_id, out, left_width_);
  if (options_.base.join.emit_similarity) {
    out->AppendDouble(output_schema_.num_fields() - 1, ref.similarity);
  }
  out->CommitRow();
}

Status ParallelAdaptiveJoin::NextMatchRefs(size_t max_refs,
                                           std::vector<ParallelMatchRef>* out) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  out->clear();
  if (max_refs == 0) max_refs = 1;
  while (out->size() < max_refs) {
    bool have_output = false;
    AQP_RETURN_IF_ERROR(EnsureOutput(&have_output));
    if (!have_output) break;
    const size_t take = std::min(max_refs - out->size(),
                                 out_buffer_.size() - out_pos_);
    out->insert(out->end(), out_buffer_.begin() + out_pos_,
                out_buffer_.begin() + out_pos_ + take);
    out_pos_ += take;
  }
  return Status::OK();
}

Result<std::optional<storage::Tuple>> ParallelAdaptiveJoin::Next() {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  bool have_output = false;
  AQP_RETURN_IF_ERROR(EnsureOutput(&have_output));
  if (!have_output) return std::optional<storage::Tuple>();
  return std::optional<storage::Tuple>(
      MaterializeRow(out_buffer_[out_pos_++]));
}

template <typename Batch>
Status ParallelAdaptiveJoin::FillBatch(Batch* out) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  out->Reset(&output_schema_);
  // On error the partial batch is discarded per the Operator contract;
  // rewinding the cursor keeps the discarded refs deliverable instead
  // of silently consumed. Valid only while the buffer they came from
  // is still the live one (recycling bumps the generation).
  const size_t entry_pos = out_pos_;
  const uint64_t entry_generation = buffer_generation_;
  while (!out->full()) {
    bool have_output = false;
    Status status = EnsureOutput(&have_output);
    if (!status.ok()) {
      if (buffer_generation_ == entry_generation) {
        out_pos_ = entry_pos;
      }
      out->Clear();
      return status;
    }
    if (!have_output) break;
    EmitRef(out_buffer_[out_pos_++], out);
  }
  return Status::OK();
}

Status ParallelAdaptiveJoin::NextColumnBatch(storage::ColumnBatch* out) {
  return FillBatch(out);
}

Status ParallelAdaptiveJoin::NextBatch(storage::TupleBatch* out) {
  return FillBatch(out);
}

Result<size_t> ParallelAdaptiveJoin::AdvanceUnmaterialized(size_t max_rows) {
  if (!open_) return Status::FailedPrecondition(name() + " not open");
  if (max_rows == 0) max_rows = 1;
  bool have_output = false;
  AQP_RETURN_IF_ERROR(EnsureOutput(&have_output));
  if (!have_output) return size_t{0};
  const size_t take = std::min(max_rows, out_buffer_.size() - out_pos_);
  out_pos_ += take;
  return take;
}

}  // namespace parallel
}  // namespace exec
}  // namespace aqp
