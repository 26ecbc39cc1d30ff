// RAII trace spans: causal, deterministic pipeline traces.
//
// Each epoch becomes one trace (trace_id = epoch index) whose spans follow
// the pipeline: observe -> summarize(svd, kmeans) -> ship -> aggregate ->
// infer -> postprocess -> feedback.  Span identity is *derived*, not
// allocated: span_id = fnv64(parent_span_id, name, key), where `key`
// disambiguates siblings with the same name (monitor id, rule sid, ...).
// Derived ids make traces reproducible: two runs of the same seeded
// experiment produce the same span set regardless of thread interleaving,
// so the JSONL export (sorted, wall-clock fields excluded) is
// byte-identical — the determinism contract the telemetry tests pin down.
//
// Durations come from the monotonic clock (steady_clock) and are the only
// nondeterministic field; `sim_time` carries the deterministic simulated
// timestamp where the caller has one (epoch end time, event-queue now()).
//
// The tracer appends finished spans to one mutex-guarded buffer (pool
// workers finish a handful of spans per flush, so the lock is cold);
// `drain()` moves the buffer into a stable archive at epoch close.
// Exports sort, so the determinism contracts do not depend on the
// append order.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jaal::telemetry {

/// Identity handed from a parent span to its children.  sim_time propagates
/// so children inherit the deterministic timestamp by default.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< 0 = no parent (root).
  double sim_time = -1.0;     ///< Simulated seconds; -1 = not set.
};

/// One finished span, as exported.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
  std::uint64_t key = 0;
  double sim_time = -1.0;
  double start_ms = 0.0;     ///< Wall clock, relative to tracer birth.
  double duration_ms = 0.0;  ///< Wall clock (nondeterministic).
  /// Deterministic numeric attributes, in insertion order.
  std::vector<std::pair<std::string, double>> attrs;
};

/// Deterministic span id: FNV-1a over (parent_span_id, name, key).
[[nodiscard]] std::uint64_t derive_span_id(std::uint64_t parent_span_id,
                                           std::string_view name,
                                           std::uint64_t key) noexcept;

class Tracer;

/// RAII span.  A default-constructed Span is inert (all methods no-op), so
/// instrumented code can write
///   telemetry::Span s = tel ? tel->tracer.span("infer", parent) : Span{};
/// and use `s` unconditionally.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name, const SpanContext& parent,
       std::uint64_t key);

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Attaches a deterministic numeric attribute.
  void attr(std::string name, double value);

  /// Overrides the inherited simulated timestamp.
  void set_sim_time(double t) noexcept { rec_.sim_time = t; }

  /// Overrides the measured wall duration (for spans that report an
  /// externally accumulated cost, e.g. summed store appends).
  void set_duration_ms(double ms) noexcept {
    rec_.duration_ms = ms;
    duration_overridden_ = true;
  }

  /// Context for spawning children.
  [[nodiscard]] SpanContext context() const noexcept {
    return {rec_.trace_id, rec_.span_id, rec_.sim_time};
  }

  /// Records the span (idempotent; also called by the destructor).
  void finish();

 private:
  Tracer* tracer_ = nullptr;  ///< Null = inert.
  SpanRecord rec_;
  bool duration_overridden_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// Collects finished spans.  Thread-safe: concurrent pool workers append
/// under one mutex.
class Tracer {
 public:
  Tracer();

  /// Starts a span.  A default-constructed parent makes it a root: the
  /// trace id is then taken from `key` (callers pass the epoch index).
  [[nodiscard]] Span span(std::string name, const SpanContext& parent = {},
                          std::uint64_t key = 0) {
    return Span(this, std::move(name), parent, key);
  }

  /// Moves the pending buffer into the internal archive and returns the
  /// spans drained by *this* call (callers wanting everything so far use
  /// records()).  Called at epoch close, where no span is in flight.
  std::vector<SpanRecord> drain();

  /// All recorded spans: the drained archive plus whatever is still
  /// pending.  Order is unspecified; exports sort.
  [[nodiscard]] std::vector<SpanRecord> records() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  friend class Span;
  void record(SpanRecord&& rec);

  mutable std::mutex mu_;
  std::vector<SpanRecord> pending_;  ///< Recorded since the last drain().
  std::vector<SpanRecord> drained_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace jaal::telemetry
