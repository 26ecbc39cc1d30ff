// Fault-injecting summary transport for the monitor -> engine control plane.
//
// Every summary the controller aggregates and every feedback retrieval
// round-trip goes through a SummaryTransport.  With a fault-free scenario
// (the default) it short-circuits to perfect in-process delivery and costs a
// branch; with faults configured it decides each summary's fate from one
// loss model (an i.i.d. drop) and one delay model (exponential delay plus
// uniform jitter against the aggregation deadline) — delivered in time,
// delivered late, or dropped — and wraps feedback retrievals in bounded
// retry with exponential backoff.
//
// Determinism contract: ship() and fetch() are called serially by the
// controller (the aggregation/decision phases are serial in monitor/rule
// order even when a thread pool is attached), and every random draw is
// seeded from (scenario.seed, epoch, monitor), so a scenario's outcome —
// drops, lateness, retry counts, and everything downstream — is
// byte-identical across runs and across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "faults/scenario.hpp"
#include "packet/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::faults {

enum class ShipStatus : std::uint8_t {
  kDelivered,  ///< Arrived at or before the epoch deadline.
  kLate,       ///< Arrived, but after the deadline (LatePolicy decides).
  kDropped,    ///< Lost on the link (the scenario's i.i.d. drop).
};

struct ShipOutcome {
  ShipStatus status = ShipStatus::kDelivered;
  double arrival_time = 0.0;  ///< Simulated seconds; 0 when dropped.
};

/// One feedback retrieval through the transport: the payload (nullopt when
/// every attempt failed or the backoff budget ran out) plus the retry
/// accounting the resilience tests assert on.
struct FetchResult {
  std::optional<std::vector<packet::PacketRecord>> packets;
  std::size_t attempts = 0;
  double backoff_s = 0.0;  ///< Total backoff accrued (bounded by policy).
};

/// Cumulative transport accounting (monotonic, like InferenceStats).
struct TransportStats {
  std::uint64_t summaries_shipped = 0;
  std::uint64_t summaries_delivered = 0;
  std::uint64_t summaries_dropped = 0;
  std::uint64_t summaries_late = 0;
  std::uint64_t summaries_reordered = 0;  ///< Arrived before a lower-id peer.
  std::uint64_t crashed_monitor_epochs = 0;
  std::uint64_t fetch_calls = 0;
  std::uint64_t fetch_attempts = 0;
  std::uint64_t fetch_failures = 0;  ///< Individual failed attempts.
  std::uint64_t fetch_giveups = 0;   ///< Retrievals that exhausted retries.
  double fetch_backoff_s = 0.0;
};

class SummaryTransport {
 public:
  /// Validates the scenario (std::invalid_argument on misconfiguration).
  /// Every draw is keyed by monitor id, so the transport keeps no
  /// per-monitor state and does not use `monitor_count`.
  SummaryTransport(const FaultScenario& scenario, std::size_t monitor_count);

  /// Publishes jaal_faults_* counters into `tel` (null detaches).
  void set_telemetry(telemetry::Telemetry* tel);

  [[nodiscard]] const FaultScenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

  /// True when `monitor` is not inside any crash window at `epoch`.  Cheap
  /// enough for the per-packet ingest path (empty crash list short-circuits).
  [[nodiscard]] bool monitor_up(std::size_t monitor,
                                std::uint64_t epoch) const noexcept {
    for (const CrashWindow& c : scenario_.crashes) {
      if (c.covers(monitor, epoch)) return false;
    }
    return true;
  }

  /// Counts one epoch's worth of crashed monitors (telemetry bookkeeping;
  /// the controller discards their buffers).
  void note_crashed(std::size_t count);

  /// Starts an epoch: `now` is the epoch close time, `deadline` the absolute
  /// simulated time after which an arriving summary is late.
  void begin_epoch(std::uint64_t epoch, double now, double deadline);

  /// Decides the fate of one summary from `monitor`, shipped at the current
  /// epoch's close time.  The loss and delay models do not depend on the
  /// summary's size; the byte count stays in the signature because callers
  /// account shipped bytes alongside each fate.  Never throws.
  [[nodiscard]] ShipOutcome ship(std::size_t monitor, std::size_t bytes);

  /// One feedback round-trip: runs `attempt` under the scenario's
  /// per-attempt failure rate and the bounded RetryPolicy.  A crashed
  /// monitor fails every attempt.  Never throws (barring `attempt` itself).
  using FetchAttempt =
      std::function<std::vector<packet::PacketRecord>(std::size_t attempt)>;
  [[nodiscard]] FetchResult fetch(std::size_t monitor,
                                  const FetchAttempt& attempt);

 private:
  FaultScenario scenario_;
  std::mt19937_64 fetch_rng_;

  std::uint64_t epoch_ = 0;
  double epoch_now_ = 0.0;
  double epoch_deadline_ = 0.0;
  double last_arrival_this_epoch_ = 0.0;

  TransportStats stats_;

  telemetry::Counter* tel_delivered_ = nullptr;
  telemetry::Counter* tel_dropped_ = nullptr;
  telemetry::Counter* tel_late_ = nullptr;
  telemetry::Counter* tel_reordered_ = nullptr;
  telemetry::Counter* tel_crashed_ = nullptr;
  telemetry::Counter* tel_fetch_attempts_ = nullptr;
  telemetry::Counter* tel_fetch_failures_ = nullptr;
  telemetry::Counter* tel_fetch_giveups_ = nullptr;
};

}  // namespace jaal::faults
