// EpochRecorder: the one reporting point of JaalController::close_epoch.
//
// Each pipeline stage reports once — begin(), attributes, end() — and the
// recorder fans that out: a Tracer span under the epoch's root span, and a
// kSpan flight event (actor = telemetry::profile_stage_id(name)) into the
// flight ring and the epoch's kEvents batch for the store's ops stream.
// The fidelity, ship and close-out events, the deployment metrics
// (jaal_faults_*, jaal_observe_*, jaal_slo_*, jaal_profile_*), the SLO
// tracker and both critical-path profile modes are fed from here too.  The
// spans are the one stage clock: no other timer brackets a stage.
//
// Epoch lifecycle: begin_epoch() opens the root span; the stages report;
// close_epoch() takes the deterministic profile digest and folds the epoch
// into the health ledger, SLO and flight dump; the controller commits the
// epoch, persist_ops() writing the recorder's share ahead of the EpochMeta;
// end_epoch() closes the root and takes the wall-clock profile, which thus
// covers the commit.
//
// Every event is raised from the controller's serial phases, so seq
// numbers and payloads are identical across runs and thread counts.
// With telemetry, flight recorder, SLO and ops persistence all
// off, each reporting site costs one branch and no allocation.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::runtime {
class RuntimeStats;
}  // namespace jaal::runtime

namespace jaal::store {
class DeploymentStore;
}  // namespace jaal::store

namespace jaal::core {

struct JaalConfig;
struct EpochResult;

class EpochRecorder {
 public:
  /// Opens the flight ring and SLO tracker `cfg` asks for and registers
  /// the metrics it enables.  `pool_stats` (null when serial) is rebound
  /// into the telemetry registry, so the pool's counters export with the
  /// rest.
  EpochRecorder(const JaalConfig& cfg, runtime::RuntimeStats* pool_stats);

  /// Opens the epoch's root span (and, when profiling, points `store`'s
  /// commit spans at it), then reports the observe stage: the `packets`
  /// ingested since the previous close.
  void begin_epoch(std::uint64_t epoch, double now, std::uint64_t packets,
                   store::DeploymentStore* store);

  /// Starts stage `name` (a profile stage name; stages run one at a time)
  /// under the epoch root; returns the context for its child spans.
  telemetry::SpanContext begin(const char* name);
  /// Attaches a deterministic numeric attribute to the current stage.
  void attr(const char* name, double value) {
    if (tel_ != nullptr) stage_.attr(name, value);
  }
  /// Finishes the current stage's span and raises its kSpan event.
  void end();

  /// The zero-duration stages: ship (after summarize: the bytes shipped
  /// and, on a degraded epoch, what was lost) and postprocess (after
  /// infer: alert classification tallies).
  void shipped(const EpochResult& result, std::uint64_t summary_bytes);
  void postprocessed(const EpochResult& result);

  void packet_lost() noexcept {
    if (packets_lost_ != nullptr) packets_lost_->add(1);
  }
  void fidelity(const observe::FidelityStats& stats) {
    if (events_on()) emit(observe::fidelity_event(stats));
  }
  void ship(std::size_t monitor, observe::ShipFate fate) {
    if (events_on()) {
      emit({.kind = observe::FlightEventKind::kShip,
            .actor = static_cast<std::uint32_t>(monitor),
            .u = {static_cast<std::uint64_t>(fate)}});
    }
  }

  /// Close-out, ahead of the store commit: the deterministic profile
  /// digest; then the epoch's degradation (with `feedback_fallbacks` this
  /// epoch) folds into `health`, whose drift transitions land in
  /// result.drift_events; then the drift/feedback/close events, metrics,
  /// SLO sample and automatic flight dump.
  void close_epoch(EpochResult& result, observe::HealthTracker& health,
                   std::uint64_t feedback_fallbacks);
  /// The recorder's share of the commit (store_metrics): the epoch's event
  /// batch and the metrics delta since the previous commit.
  void persist_ops(store::DeploymentStore& store);
  /// Closes the root span; when profiling, result.profile gets the
  /// wall-clock critical path of the whole epoch.
  void end_epoch(EpochResult& result);

  [[nodiscard]] const observe::FlightRecorder* flight() const noexcept {
    return flight_.get();
  }
  [[nodiscard]] const observe::SloTracker* slo() const noexcept {
    return slo_.get();
  }
  [[nodiscard]] const std::string& last_flight_dump() const noexcept {
    return last_flight_dump_;
  }

 private:
  [[nodiscard]] bool events_on() const noexcept {
    return flight_ != nullptr || store_ops_;
  }
  /// Stamps epoch and seq; records into the ring and/or the batch.
  void emit(observe::FlightEvent ev);

  telemetry::Telemetry* tel_;
  std::size_t monitor_count_;
  bool profiling_;  ///< Telemetry with ObserveConfig::profile.
  bool store_ops_;  ///< A store with JaalConfig::store_metrics.
  std::unique_ptr<observe::FlightRecorder> flight_;
  std::unique_ptr<observe::SloTracker> slo_;

  std::uint64_t epoch_ = 0;
  double now_ = 0.0;
  std::chrono::steady_clock::time_point wall_start_{};  ///< SLO on only.
  telemetry::Span epoch_span_;
  telemetry::SpanContext root_ctx_;
  telemetry::Span stage_;  ///< The current stage (inert without telemetry).
  const char* stage_name_ = nullptr;
  /// Drained for the deterministic digest, reused for the wall profile.
  std::vector<telemetry::SpanRecord> spans_;
  std::vector<observe::FlightEvent> events_;  ///< This epoch's batch.

  /// Event seq counter (the ring keeps its own; this one stays
  /// deterministic even when the ring is off).
  std::uint64_t seq_ = 0;
  /// Registry snapshot at the previous commit (the first epoch's delta
  /// covers everything since startup).
  telemetry::MetricsSnapshot prev_metrics_;
  /// High-water severity of the health report's top finding; an epoch
  /// raising it triggers an automatic flight dump.
  double last_top_severity_ = 0.0;
  std::string last_flight_dump_;
  std::uint64_t flight_dropped_prev_ = 0;

  /// Metric handles, null when their family is not registered.
  telemetry::Counter* degraded_epochs_ = nullptr;
  telemetry::Counter* rolled_forward_ = nullptr;
  telemetry::Counter* packets_lost_ = nullptr;
  telemetry::Counter* drift_events_ = nullptr;
  telemetry::Gauge* monitors_drifting_ = nullptr;
  telemetry::Gauge* caution_permille_ = nullptr;
  telemetry::Counter* flight_events_ = nullptr;
  telemetry::Counter* flight_dropped_ = nullptr;
  telemetry::Counter* flight_dumps_ = nullptr;
  telemetry::Counter* slo_epochs_ = nullptr;
  telemetry::Counter* slo_rf_breaches_ = nullptr;
  telemetry::Counter* slo_lat_breaches_ = nullptr;
  telemetry::Gauge* slo_burn_ = nullptr;
  telemetry::Gauge* slo_rf_budget_ = nullptr;
  telemetry::Gauge* slo_lat_budget_ = nullptr;
  telemetry::Histogram* profile_path_ms_ = nullptr;
  telemetry::Counter* profile_epochs_ = nullptr;
  telemetry::Counter* profile_stragglers_ = nullptr;
  /// Lazily-bound per-stage exclusive-time histograms, keyed by stage name
  /// (this cache avoids re-formatting the label every epoch).
  std::vector<std::pair<std::string, telemetry::Histogram*>> profile_stage_;
};

}  // namespace jaal::core
