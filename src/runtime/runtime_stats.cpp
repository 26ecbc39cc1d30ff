#include "runtime/runtime_stats.hpp"

namespace jaal::runtime {
namespace {

constexpr const char* kTasksSubmitted = "jaal_runtime_tasks_submitted_total";
constexpr const char* kTasksCompleted = "jaal_runtime_tasks_completed_total";
constexpr const char* kParallelFor = "jaal_runtime_parallel_for_calls_total";
constexpr const char* kQueueHighWater = "jaal_runtime_queue_depth_high_water";

}  // namespace

RuntimeStats::RuntimeStats() { bind(&own_); }

void RuntimeStats::bind(telemetry::MetricsRegistry* registry) {
  tasks_submitted_ = &registry->counter(kTasksSubmitted);
  tasks_completed_ = &registry->counter(kTasksCompleted);
  parallel_for_calls_ = &registry->counter(kParallelFor);
  queue_high_water_ = &registry->gauge(kQueueHighWater);
}

RuntimeStatsSnapshot RuntimeStats::snapshot(std::size_t threads) const {
  RuntimeStatsSnapshot snap;
  snap.tasks_submitted = tasks_submitted_->value();
  snap.tasks_completed = tasks_completed_->value();
  snap.parallel_for_calls = parallel_for_calls_->value();
  snap.queue_depth_high_water =
      static_cast<std::size_t>(queue_high_water_->value());
  snap.threads = threads;
  return snap;
}

}  // namespace jaal::runtime
