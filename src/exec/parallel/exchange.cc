#include "exec/parallel/exchange.h"

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/macros.h"

namespace aqp {
namespace exec {
namespace parallel {

RadixExchange::RadixExchange(exec::Operator* left, exec::Operator* right,
                             const join::JoinSpec& spec,
                             exec::InterleavePolicy policy,
                             uint64_t left_hint, uint64_t right_hint,
                             size_t batch_size, size_t num_shards,
                             SourceRetryOptions retry)
    : inputs_{left, right},
      spec_(spec),
      policy_(policy),
      hints_{left_hint, right_hint},
      batch_size_(std::max<size_t>(1, batch_size)),
      num_shards_(std::max<size_t>(1, num_shards)),
      retry_(retry),
      scheduler_(policy, left_hint, right_hint) {}

void RadixExchange::Reset() {
  scheduler_ = exec::InterleaveScheduler(policy_, hints_[0], hints_[1]);
  for (size_t i = 0; i < 2; ++i) {
    input_batch_[i].Reset(nullptr, batch_size_);
    input_pos_[i] = 0;
    done_[i] = false;
    side_count_[i] = 0;
  }
  steps_ = 0;
  source_retries_ = 0;
}

Status RadixExchange::RefillOnce(exec::Side side) {
  const size_t i = static_cast<size_t>(side);
  input_batch_[i].Reset(&inputs_[i]->output_schema(), batch_size_);
  input_pos_[i] = 0;
  Status status = inputs_[i]->NextColumnBatch(&input_batch_[i]);
  if (status.ok() && !input_batch_[i].empty()) {
    // One vectorized hash pass per refill; the lane travels with every
    // scattered row and is cached by the target shard's store.
    input_batch_[i].ComputeKeyHashes(spec_.column(side));
  }
  return status;
}

Status RadixExchange::Refill(exec::Side side) {
  Status status = RefillOnce(side);
  // Transient-failure retry: re-attempt the whole refill. A failed
  // NextColumnBatch delivered no rows (the Operator contract discards
  // the partial batch), so retrying cannot duplicate input.
  size_t attempt = 0;
  while (status.IsUnavailable() && attempt < retry_.max_retries) {
    ++attempt;
    ++source_retries_;
    if (retry_.backoff_base.count() > 0) {
      std::this_thread::sleep_for(retry_.backoff_base * (1 << (attempt - 1)));
    }
    status = RefillOnce(side);
  }
  if (!status.ok() && attempt > 0) {
    return status.WithContext("after " + std::to_string(attempt) +
                              " retry(ies) on the " +
                              std::string(exec::SideName(side)) + " source");
  }
  return status;
}

void RadixExchange::SampleUnrouted(join::GramOrderSampler* sampler) const {
  for (exec::Side side : {exec::Side::kLeft, exec::Side::kRight}) {
    const size_t i = static_cast<size_t>(side);
    const size_t column = spec_.column(side);
    for (size_t row = input_pos_[i]; row < input_batch_[i].size(); ++row) {
      if (!sampler->Add(side, input_batch_[i].StringAt(column, row))) break;
    }
  }
}

Result<uint64_t> RadixExchange::RouteEpoch(
    uint64_t max_steps, const std::vector<JoinShard*>& shards,
    std::vector<RouteEntry>* route) {
  AQP_FAILPOINT(fail::site::kExchangeRoute);
  uint64_t routed = 0;
  while (routed < max_steps) {
    const auto next_side = scheduler_.NextSide(done_[0], done_[1]);
    if (!next_side.has_value()) break;  // both inputs exhausted
    const exec::Side side = *next_side;
    const size_t i = static_cast<size_t>(side);
    if (input_pos_[i] >= input_batch_[i].size()) {
      AQP_RETURN_IF_ERROR(Refill(side));
      if (input_batch_[i].empty()) {
        // End-of-stream, discovered at the same read index as the
        // single-threaded engine (the buffer drains exactly when that
        // engine would have read the tuple after the last).
        done_[i] = true;
        continue;
      }
    }
    // RouteEntry::ordinal, RoutedRow::row, and shard-local TupleIds
    // are all 32-bit and bounded by the per-side routed count; past
    // 2^32 - 1 rows they would silently truncate and alias earlier
    // tuples' flags/stores. Checked in every build type — one compare
    // per routed row.
    if (side_count_[i] > std::numeric_limits<uint32_t>::max()) {
      return Status::ResourceExhausted(
          "RadixExchange: " + std::string(exec::SideName(side)) +
          " side exceeds 2^32 routed tuples; 32-bit ordinals would "
          "truncate");
    }
    const size_t row = input_pos_[i]++;
    scheduler_.OnRead(side);

    // Radix step: mix the lane's precomputed FNV-1a hash so the modulo
    // sees avalanche-quality bits, then partition.
    const uint64_t key_hash = input_batch_[i].key_hash(row);
    const uint32_t shard =
        static_cast<uint32_t>(Mix64(key_hash) % num_shards_);

    RouteEntry entry;
    entry.shard = shard;
    entry.side = side;
    entry.ordinal = static_cast<uint32_t>(side_count_[i]);
    entry.local_id =
        static_cast<storage::TupleId>(shards[shard]->routed_count(side));
    shards[shard]->RouteRow(side, input_batch_[i], row, steps_,
                            entry.ordinal);
    route->push_back(entry);

    ++side_count_[i];
    ++steps_;
    ++routed;
  }
  return routed;
}

}  // namespace parallel
}  // namespace exec
}  // namespace aqp
