// Offline store diagnosis: rebuild the operational timeline — health,
// drift, SLO, telemetry — of a deployment purely from its DeploymentStore,
// without rerunning any traffic.
//
// How reconstruction works: the live controller persists, per epoch, the
// flight events it raised while closing that epoch (kEvents) and the
// registry's metrics delta (kMetrics), both committed under the epoch's
// EpochMeta.  Feeding a fresh HealthTracker the stored kFidelity events (in
// stored order) and each kEpochClose event's degradation numbers replays
// the exact arithmetic the live tracker ran, so the reconstructed
// HealthReport::to_jsonl() is byte-identical to the live one; the same
// holds for the SloTracker re-fed from the EpochMeta report fractions.  The
// stored kDriftStart/kDriftEnd events are cross-checked against the
// re-derived transitions — a mismatch means the store and the build
// disagree about the drift arithmetic and is surfaced, not hidden.
//
// Stores written without ops records (store_metrics off) still diagnose:
// epoch/alert/SLO timeline from EpochMeta and the alert records, with
// health_complete() false.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "observe/health.hpp"
#include "observe/slo.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"

namespace jaal::store {

struct StoreDiagnosisConfig {
  /// Must match the live deployment's observability knobs (drift config
  /// feeds the reconstructed detectors).
  observe::ObserveConfig observe;
  /// Monitors in the deployment; 0 derives it from the stored kEpochClose
  /// events (which carry it) or, failing that, the summary stream ids.
  std::size_t monitor_count = 0;
};

struct StoreDiagnosis {
  std::uint64_t epochs = 0;           ///< Committed epochs.
  std::uint64_t alerts = 0;           ///< Stored alert records.
  std::uint64_t flight_events = 0;    ///< Stored events across all epochs.
  std::uint64_t metrics_records = 0;  ///< Stored kMetrics deltas.
  /// Epochs whose stored drift events disagree with the re-derived ones.
  std::uint64_t drift_mismatches = 0;
  /// True when every committed epoch carried a kEpochClose event — i.e. the
  /// health reconstruction saw everything the live tracker saw.
  bool health_complete = false;
  std::size_t monitor_count = 0;      ///< As used for reconstruction.

  observe::HealthReport health;       ///< Reconstructed (scoreboard empty).
  std::string slo_jsonl;              ///< Reconstructed slo_summary line.
  /// Sum of all stored metrics deltas: the deterministic slice of the
  /// registry as it stood at the last committed epoch.
  telemetry::MetricsSnapshot cumulative_metrics;
  std::vector<EpochMeta> metas;       ///< Ascending by epoch.
  /// Deterministic JSONL: one "epoch" line per committed epoch (meta +
  /// degradation when stored), then the health report lines, then the
  /// slo_summary line.
  std::string timeline_jsonl;
};

/// Reconstructs the diagnosis from a store.  Throws std::invalid_argument
/// on an inconsistent config and std::runtime_error on refused ops
/// payloads (see DeploymentStore::each_metrics_delta).
[[nodiscard]] StoreDiagnosis diagnose_store(const DeploymentStore& store,
                                            const StoreDiagnosisConfig& cfg);

}  // namespace jaal::store
