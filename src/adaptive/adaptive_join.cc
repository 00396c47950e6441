#include "adaptive/adaptive_join.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/timer.h"

namespace aqp {
namespace adaptive {

AdaptiveJoin::AdaptiveJoin(exec::Operator* left, exec::Operator* right,
                           AdaptiveJoinOptions options)
    : SymmetricJoin(left, right, options.join,
                    LeftMode(options.adaptive.initial_state),
                    RightMode(options.adaptive.initial_state),
                    "AdaptiveJoin"),
      options_(std::move(options)),
      monitor_(options_.adaptive),
      assessor_(options_.adaptive),
      responder_(options_.adaptive),
      cost_(options_.weights),
      state_(options_.adaptive.initial_state) {}

Status AdaptiveJoin::Open() {
  AQP_RETURN_IF_ERROR(options_.adaptive.Validate());
  return SymmetricJoin::Open();
}

void AdaptiveJoin::OnBatchCompleted(const join::StepBatchStats& batch) {
  cost_.AddSteps(state_, batch.steps.size());
  state_time_ns_[StateIndex(state_)] += batch.elapsed_ns;
  monitor_.OnBatch(batch.steps, state_);
}

uint64_t AdaptiveJoin::StepsUntilControlPoint() const {
  switch (options_.adaptive.policy) {
    case AdaptivePolicy::kPinned:
      return kNoControlPoint;
    case AdaptivePolicy::kScripted: {
      const auto& script = options_.adaptive.script;
      if (script_position_ >= script.size()) return kNoControlPoint;
      const uint64_t at = script[script_position_].at_step;
      return at > steps() ? at - steps() : 1;
    }
    case AdaptivePolicy::kAdaptive: {
      const uint64_t boundary =
          last_assessment_step_ + options_.adaptive.delta_adapt;
      return boundary > steps() ? boundary - steps() : 1;
    }
  }
  return kNoControlPoint;
}

Status AdaptiveJoin::OnQuiescentPoint() {
  switch (options_.adaptive.policy) {
    case AdaptivePolicy::kPinned:
      return Status::OK();
    case AdaptivePolicy::kScripted: {
      const auto& script = options_.adaptive.script;
      while (script_position_ < script.size() &&
             script[script_position_].at_step <= steps()) {
        const ProcessorState next = script[script_position_].state;
        ++script_position_;
        if (next != state_) {
          Assessment empty;
          empty.step = steps();
          ApplyTransition(next, empty, -1);
        }
      }
      return Status::OK();
    }
    case AdaptivePolicy::kAdaptive:
      if (steps() > 0 &&
          steps() - last_assessment_step_ >= options_.adaptive.delta_adapt) {
        RunControlLoop();
      }
      return Status::OK();
  }
  return Status::OK();
}

void AdaptiveJoin::RunControlLoop() {
  last_assessment_step_ = steps();
  const bool parent_exhausted =
      input_exhausted(options_.adaptive.parent_side);
  const Assessment assessment =
      assessor_.Assess(monitor_, core(), parent_exhausted);
  const Decision decision = responder_.Decide(state_, assessment);
  if (decision.phi == Decision::kFutilityRevert) {
    // Write off the current shortfall: approximate matching had its
    // chance and found nothing, so this deficit is unrecoverable.
    // expected - observed is the *total* shortfall, previous
    // concessions included, so this replaces rather than adds.
    const double deficit =
        assessment.expected_matches -
        static_cast<double>(assessment.observed_matches);
    assessor_.ConcedeDeficit(
        static_cast<uint64_t>(std::max(0.0, std::ceil(deficit))));
  }
  if (decision.next != state_) {
    ApplyTransition(decision.next, assessment, decision.phi);
  } else if (options_.record_trace) {
    AssessmentRecord record;
    record.assessment = assessment;
    record.state_before = state_;
    record.state_after = state_;
    record.phi = decision.phi;
    trace_.Record(std::move(record));
  }
}

void AdaptiveJoin::ApplyTransition(ProcessorState next,
                                   const Assessment& assessment, int phi) {
  AssessmentRecord record;
  record.assessment = assessment;
  record.state_before = state_;
  record.state_after = next;
  record.phi = phi;
  // SetProbeMode(side, m) catches up the structure on the *opposite*
  // side that `side`'s probes will now use; record the work as the
  // paper's switch cost.
  Timer timer;
  record.catchup_left = SetProbeMode(exec::Side::kLeft, LeftMode(next));
  record.catchup_right = SetProbeMode(exec::Side::kRight, RightMode(next));
  transition_time_ns_[StateIndex(next)] += timer.ElapsedNanos();
  state_ = next;
  cost_.AddTransition(next);
  if (options_.record_trace) {
    trace_.Record(std::move(record));
  }
}

}  // namespace adaptive
}  // namespace aqp
