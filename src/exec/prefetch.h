#ifndef AQP_EXEC_PREFETCH_H_
#define AQP_EXEC_PREFETCH_H_

#include <cstdint>
#include <deque>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/operator.h"
#include "storage/column_batch.h"

namespace aqp {
namespace exec {

/// \brief Knobs of the prefetching source wrapper.
struct PrefetchOptions {
  /// Batches buffered ahead of the consumer. Depth 1 still overlaps one
  /// refill with downstream work; larger depths absorb bursty sources.
  size_t depth = 2;
  /// Rows pulled from the child per producer refill. Match the
  /// consumer's batch size to make every pop serve one full batch.
  size_t batch_size = storage::ColumnBatch::kDefaultCapacity;
};

/// \brief Observability counters of a PrefetchSource.
struct PrefetchStats {
  /// Producer refills completed (including the end-of-stream and any
  /// failed attempts).
  uint64_t refills = 0;
  /// Consumer pops that found a batch already buffered — the overlap
  /// win. pops == served_without_wait + consumer_waits.
  uint64_t served_without_wait = 0;
  /// Consumer pops that had to block on the producer.
  uint64_t consumer_waits = 0;
  /// Total time the consumer spent blocked on the producer.
  int64_t consumer_wait_ns = 0;
  /// Total time the producer spent inside child NextColumnBatch — the
  /// refill cost moved off the consumer's critical path.
  int64_t producer_refill_ns = 0;
};

/// \brief Source wrapper that overlaps child refills with downstream
/// work on a dedicated producer thread. It is the engine's only ingest
/// overlap: wrap a slow source (a remote feed, a CSV parse) in it, for
/// the single-threaded join or for a parallel join, whose coordinator
/// routes each epoch serially at its barrier.
///
/// The producer pulls ColumnBatches from the borrowed child into a
/// bounded queue (PrefetchOptions::depth); NextColumnBatch() pops them
/// in order, so the consumer observes exactly the row stream — order,
/// batch errors, end-of-stream position — that calling the child
/// directly would produce. Each consumer call serves rows from one
/// buffered batch (up to out->capacity() of them), which preserves the
/// Operator contract: a failed child refill delivered no rows, so the
/// error surfaces on a call that delivers none either.
///
/// Error handling is deliberately non-sticky: after surfacing a child
/// error the producer is parked and lazily restarted on the next call,
/// so upstream transient-retry loops (SourceRetryOptions re-issuing a
/// kUnavailable refill) work unchanged through the wrapper.
/// End-of-stream IS sticky. Close() stops and joins the producer, then
/// closes the child.
///
/// The producer evaluates the `ingest.prefetch` failpoint before every
/// child refill; an injected status surfaces to the consumer exactly
/// like a child error.
///
/// Lock hierarchy: `mu_` is a leaf — the producer and consumer never
/// hold it across a child call or any other lock.
class PrefetchSource : public Operator {
 public:
  /// `child` is borrowed and must outlive the wrapper.
  explicit PrefetchSource(Operator* child, PrefetchOptions options = {});
  ~PrefetchSource() override;

  PrefetchSource(const PrefetchSource&) = delete;
  PrefetchSource& operator=(const PrefetchSource&) = delete;

  Status Open() override;
  Result<std::optional<storage::Tuple>> Next() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "PrefetchSource"; }

  /// Snapshot of the counters, taken under the internal mutex (safe
  /// against a running producer).
  PrefetchStats stats() const AQP_EXCLUDES(mu_);

  /// Allocated footprint of the bounded chunk deque plus the
  /// consumer-side serving batches. Locks the internal mutex for the
  /// queue (safe against a running producer); call from the consumer
  /// thread, which owns the serving batches.
  uint64_t ApproximateMemoryUsage() AQP_EXCLUDES(mu_);

 private:
  /// One buffered producer result: a batch, or an error, or EOS (OK +
  /// empty batch). A terminal chunk (error or EOS) is always the last
  /// one its producer generation pushes.
  struct Chunk {
    storage::ColumnBatch batch;
    Status status = Status::OK();
  };

  /// Spawns a producer generation (joins the previous, exited one).
  void StartProducerLocked() AQP_REQUIRES(mu_);
  /// Signals stop, joins the producer, and clears the stop flag so the
  /// operator can be re-opened.
  void StopProducer() AQP_EXCLUDES(mu_);
  void ProducerLoop() AQP_EXCLUDES(mu_);
  /// Failpoint + one child refill, exceptions contained to a Status.
  Status ProduceOne(storage::ColumnBatch* batch);

  Operator* child_;
  PrefetchOptions options_;
  bool open_ = false;

  mutable sync::Mutex mu_{"prefetch.mu_"};
  sync::CondVar cv_ready_;  // consumer waits: queue non-empty
  sync::CondVar cv_space_;  // producer waits: queue below depth
  std::deque<Chunk> queue_ AQP_GUARDED_BY(mu_);
  bool producer_running_ AQP_GUARDED_BY(mu_) = false;
  bool stop_ AQP_GUARDED_BY(mu_) = false;
  /// Producer handle: touched only by the consumer thread (Open /
  /// Close / lazy restart), never by the producer itself.
  std::thread thread_;

  /// Consumer-side cursor into the batch currently being served.
  storage::ColumnBatch current_;
  size_t cursor_ = 0;
  bool eos_ = false;

  /// Row-protocol (Next) adapter state.
  storage::ColumnBatch row_batch_;
  size_t row_pos_ = 0;
  bool row_eos_ = false;

  PrefetchStats stats_ AQP_GUARDED_BY(mu_);
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PREFETCH_H_
