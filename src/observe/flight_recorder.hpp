// In-process flight recorder: a fixed-size ring of structured operational
// events (epoch closes, fault-transport decisions, fidelity samples, drift
// transitions, stage-span completions) that an operator can dump as
// deterministic JSONL after the fact — the "what was the pipeline doing
// right before this?" answer that counters alone cannot give.
//
// Cost model: recording is wait-free — one relaxed fetch_add to claim a
// slot, a plain struct copy, one release store to publish.  When the
// recorder is off (the default), callers hold a null pointer and pay one
// branch.  The ring overwrites oldest-first when full; overwritten events
// are counted, never silently lost.
//
// Threading contract: record() is safe from concurrent threads as long as
// the ring does not wrap within one concurrent burst (capacity >> in-flight
// writers — trivially true here: the controller records only from the
// serial epoch-close phase).  snapshot()/dump_jsonl() read only published
// slots and are safe concurrent with recording; for a *deterministic* dump,
// take it from the serial phase like everything else in this codebase.
//
// Determinism: events carry simulated time, epoch ids and seeded pipeline
// quantities — never wall-clock durations — so the same seeded run produces
// a byte-identical dump across runs and thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "observe/health.hpp"

namespace jaal::observe {

/// Event vocabulary.  Values are stable — they are persisted verbatim in
/// the store's kEvents records (see store/metrics_codec.hpp); add at the
/// end, never renumber.
enum class FlightEventKind : std::uint8_t {
  kEpochClose = 1,  ///< One per closed epoch: degradation accounting.
  kFidelity = 2,    ///< One per reporting monitor: summary fidelity.
  kDriftStart = 3,  ///< Fidelity metric left its baseline band.
  kDriftEnd = 4,    ///< Fidelity metric returned to baseline.
  kShip = 5,        ///< Fault-transport decision on one summary.
  kFeedback = 6,    ///< Feedback-loop fallbacks this epoch.
  kSpan = 7,        ///< Pipeline stage span completed (sim time only).
  kProfile = 8,     ///< Deterministic critical-path digest of the epoch.
};

/// Stable name for a kind ("epoch_close", "fidelity", ...).
[[nodiscard]] const char* flight_kind_name(FlightEventKind kind) noexcept;

/// One fixed-size event.  The payload fields are kind-specific:
///
///   kEpochClose  actor=alerts  a=report_fraction b=caution
///                c=deployment monitor count (exact for counts < 2^53;
///                lets offline reconstruction size its HealthTracker)
///                u = {crashed, dropped, late, rolled_in, packets_lost,
///                     feedback_fallbacks}
///   kFidelity    actor=monitor a=svd_energy b=inertia c=recon_error
///                u0=batch_packets
///   kDriftStart/ actor=monitor a=value b=baseline c=z
///   kDriftEnd    u0=metric id (0 svd_energy, 1 kmeans_inertia,
///                              2 recon_error)
///   kShip        actor=monitor u0=ShipFate (1 dropped, 2 late,
///                              3 rolled forward, 4 owning shard down)
///   kFeedback    u0=fallbacks this epoch
///   kSpan        actor=stage id (telemetry::profile_stage_id: 0 observe
///                .. 5 postprocess) a=sim_time
///   kProfile     actor=dominant stage id (telemetry::profile_stage_id,
///                deterministic-mode critical path) a=root inclusive units
///                b=critical path depth  u = {span count, sibling groups}
///                — all fields are derived from the deterministic span
///                tree shape, so the persisted bytes stay byte-identical
///                across runs, thread counts, and shard counts.
struct FlightEvent {
  std::uint64_t seq = 0;  ///< Assigned by record(); global, gap-free.
  std::uint64_t epoch = 0;
  FlightEventKind kind = FlightEventKind::kEpochClose;
  std::uint32_t actor = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  std::uint64_t u[6] = {0, 0, 0, 0, 0, 0};
};

/// Drift-metric name <-> the id carried in FlightEvent::u[0].
[[nodiscard]] const char* drift_metric_name(std::uint64_t id) noexcept;
[[nodiscard]] std::uint64_t drift_metric_id(const std::string& name) noexcept;

/// One deterministic JSON line for an event (no trailing newline);
/// doubles as %.17g.
[[nodiscard]] std::string to_json(const FlightEvent& event);

// The payloads the offline doctor replays: each encoder sits next to its
// decoder, so the live recorder and the doctor cannot disagree on a field.
// Encoders leave seq and epoch to the recorder.

/// Why a shipped summary did not aggregate on time (kShip u0).
enum class ShipFate : std::uint64_t {
  kDropped = 1,
  kLate = 2,
  kRolledForward = 3,
  kShardDown = 4,  ///< Delivered, but its owning inference shard is down.
};

[[nodiscard]] FlightEvent fidelity_event(const FidelityStats& s) noexcept;
[[nodiscard]] FidelityStats fidelity_from_event(const FlightEvent& ev) noexcept;
[[nodiscard]] FlightEvent drift_event(const HealthEvent& e) noexcept;
/// One stored drift transition == one re-derived HealthEvent, field for
/// field (doubles compared by bit pattern: the store round-trips exact
/// bits, so any difference is a real divergence, not formatting).
[[nodiscard]] bool drift_matches(const FlightEvent& stored,
                                 const HealthEvent& derived) noexcept;
[[nodiscard]] FlightEvent epoch_close_event(
    const HealthTracker::EpochDegradation& d, double caution,
    std::size_t monitor_count) noexcept;
[[nodiscard]] HealthTracker::EpochDegradation degradation_from_event(
    const FlightEvent& ev) noexcept;

class FlightRecorder {
 public:
  /// Throws std::invalid_argument when capacity is zero (construction-time
  /// misconfiguration only; record() never throws).
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event (seq is assigned here, overwriting event.seq).
  void record(FlightEvent event) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Events recorded over the recorder's lifetime.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return next_.load(std::memory_order_acquire);
  }

  /// Events overwritten by ring wrap-around (lifetime).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t total = total_recorded();
    return total > capacity_ ? total - capacity_ : 0;
  }

  /// Dumps taken so far (dump_jsonl calls).
  [[nodiscard]] std::uint64_t dumps_taken() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// The ring's current contents, oldest first (published slots only).
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Deterministic JSONL dump: one flight_recorder header line (totals),
  /// then one line per live event, oldest first.  Counts toward
  /// dumps_taken().
  [[nodiscard]] std::string dump_jsonl() const;

 private:
  struct Slot {
    /// seq + 1 once the event for generation seq is published; 0 = empty.
    std::atomic<std::uint64_t> stamp{0};
    FlightEvent ev;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  mutable std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace jaal::observe
