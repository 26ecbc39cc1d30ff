// Metrics registry (counters, gauges, histograms).
//
// Hot-path writes are lock-free relaxed atomics on one cell per metric.
// Per-packet counters are written from the single ingest thread and pool
// workers write once per flush or task, so there is no contention to
// spread; each metric starts its own cache line, so writers of different
// metrics never share one.  snapshot() reads each cell once.  Registration (name -> metric)
// takes a mutex but happens once per metric at wiring time; instrumented
// components cache the returned handle and never touch the map again.
//
// Naming scheme (see DESIGN.md "Telemetry"): jaal_<subsystem>_<what>[_total
// for counters | _ms for wall-clock histograms].  Prometheus-style labels
// may be embedded literally in the name ('jaal_inference_alerts_total
// {sid="1000001"}'); the exporters split them back out.
//
// Telemetry is off when a component holds a null Telemetry pointer (the
// default): it then skips instrumentation entirely.  There is no other off
// switch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jaal::telemetry {

class MetricsRegistry;

/// Monotonically increasing event count.
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;

  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value; set() is last-writer-wins, update_max() keeps the
/// high-water mark.
class alignas(64) Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  void update_max(std::int64_t v) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<std::int64_t> value_{0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;  ///< 0 when count == 0.
  /// Cumulative-free per-bucket counts; bucket i covers
  /// (upper_bound(i-1), upper_bound(i)], bucket kBucketCount-1 is +Inf.
  std::vector<std::uint64_t> buckets;
};

/// Fixed log-scale (base-2) bucket histogram.  Bucket upper bounds are
/// 2^(i + kMinExponent) for i in [0, kBucketCount - 1); the last bucket is
/// +Inf.  With kMinExponent = -10 the finite bounds span ~0.001 .. ~1.7e7,
/// which covers microsecond-to-minute latencies in ms as well as iteration
/// and byte-per-batch counts.
class alignas(64) Histogram {
 public:
  static constexpr std::size_t kBucketCount = 36;
  static constexpr int kMinExponent = -10;

  /// Upper bound of bucket i (+Inf for the last bucket).
  [[nodiscard]] static double upper_bound(std::size_t i) noexcept;

  /// Index of the bucket a value lands in: the first bucket whose upper
  /// bound is >= v (values <= the smallest bound land in bucket 0).
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;

  void observe(double v) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time copy of every registered metric, in registration order.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    std::int64_t gauge = 0;
    HistogramSnapshot histogram;
  };
  std::vector<Entry> entries;

  /// What this snapshot accumulated since `prev`: every entry of *this*
  /// with counters and histogram counts/buckets replaced by their delta
  /// against the same-named entry in `prev` (absent in prev = zero
  /// baseline).  Gauges are point-in-time and keep their current value;
  /// histogram sums subtract (the delta of a deterministic series is
  /// deterministic) and max stays the lifetime max.
  ///
  /// Assumes counters are monotonic — the registry never decrements — so a
  /// current value below the previous one means the counter was reset (a
  /// new registry); the delta then clamps to the current value rather than
  /// wrapping.  Entries whose kinds disagree between the snapshots are
  /// treated as new (prev ignored).
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& prev) const;
};

/// Named metric registry.  Handles returned by counter()/gauge()/histogram()
/// are stable for the registry's lifetime; re-requesting a name returns the
/// same handle, requesting it as a different kind throws.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(std::string_view name, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< Registration order.
};

}  // namespace jaal::telemetry
