// Observability for the execution runtime — a thin view over the telemetry
// registry, so runtime counters live in the SAME stats system as every
// other jaal metric (one registry, one exporter).
//
// RuntimeStats counts work (tasks submitted/completed, parallel_for calls)
// and tracks the queue-depth high-water mark (how far producers ran ahead
// of the workers — the signal that a deployment should add threads).  Both
// are backed by telemetry metrics (lock-free counters, a max
// gauge): by default each RuntimeStats embeds a private registry, and
// bind() redirects it into a shared deployment-wide registry so pool
// metrics appear in the same Prometheus/JSONL export as monitor/engine
// metrics, under the jaal_runtime_* names.  Per-stage time is not counted
// here: the epoch's trace spans are the one stage clock, read by the
// critical-path profiler (telemetry/profile.hpp).
//
// snapshot() still produces the plain struct that core/metrics renders next
// to the detection-quality and communication numbers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace jaal::runtime {

/// Point-in-time copy of every counter; safe to read at leisure.
struct RuntimeStatsSnapshot {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t parallel_for_calls = 0;
  std::size_t queue_depth_high_water = 0;
  std::size_t threads = 0;
};

class RuntimeStats {
 public:
  RuntimeStats();

  /// Rebinds onto a shared registry (the deployment's Telemetry).  Call at
  /// wiring time, before work runs: counts already accumulated stay behind
  /// in the previously bound registry.
  void bind(telemetry::MetricsRegistry* registry);

  void on_submit(std::size_t queue_depth_after) noexcept {
    tasks_submitted_->add(1);
    queue_high_water_->update_max(
        static_cast<std::int64_t>(queue_depth_after));
  }

  void on_complete() noexcept { tasks_completed_->add(1); }

  void on_parallel_for() noexcept { parallel_for_calls_->add(1); }

  [[nodiscard]] RuntimeStatsSnapshot snapshot(std::size_t threads = 0) const;

 private:
  telemetry::MetricsRegistry own_;  ///< Default backing store.
  telemetry::Counter* tasks_submitted_;
  telemetry::Counter* tasks_completed_;
  telemetry::Counter* parallel_for_calls_;
  telemetry::Gauge* queue_high_water_;
};

}  // namespace jaal::runtime
