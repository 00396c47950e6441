#include <sys/resource.h>

#include <cstdio>

#include "common/macros.h"
#include "storage/column_batch.h"
#include "workloads.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

aqp::Result<uint64_t> DrainSource(aqp::exec::Operator* source) {
  aqp::storage::ColumnBatch batch;
  AQP_RETURN_IF_ERROR(source->Open());
  uint64_t rows = 0;
  aqp::Status status;
  while (true) {
    status = source->NextColumnBatch(&batch);
    if (!status.ok() || batch.empty()) break;
    rows += batch.size();
  }
  aqp::Status closed = source->Close();
  AQP_RETURN_IF_ERROR(status);
  AQP_RETURN_IF_ERROR(closed);
  return rows;
}

aqp::exec::parallel::ParallelJoinOptions LinkageOptions(
    const aqp::datagen::TestCase& tc, size_t shards) {
  aqp::exec::parallel::ParallelJoinOptions options;
  auto& join = options.base.join;
  join.spec.left_column = aqp::datagen::kAccidentsLocationColumn;
  join.spec.right_column = aqp::datagen::kAtlasLocationColumn;
  join.spec.sim_threshold = 0.85;
  join.spec.qgram.q = 3;
  join.left_size_hint = tc.child.size();
  join.right_size_hint = tc.parent.size();
  auto& mar = options.base.adaptive;
  mar.delta_adapt = 100;
  mar.window = 100;
  mar.theta_out = 0.05;
  mar.theta_curpert = 2;
  mar.theta_pastpert = 5;
  mar.parent_side = aqp::exec::Side::kRight;
  mar.parent_table_size = tc.parent.size();
  options.num_shards = shards;
  return options;
}

}  // namespace perfbench
