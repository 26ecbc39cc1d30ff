// The traced composition: JaalController::ingest + close_epoch rebuilt from
// the layers' public calls, in close_epoch's order, with one span around
// every call:
//
//   epoch (root, trace id = epoch index)
//     ingest            routing + Monitor::observe
//     begin_epoch       crash gate, Monitor::begin_epoch, transport/tier open
//     summarize         the flush phase, on a ThreadPool of the deployment's
//       flush (key = monitor)    width: Monitor::flush_epoch per monitor
//     fidelity          HealthTracker::observe_fidelity (+ flight events)
//     ship              SummaryTransport::ship + InferenceTier::add_summary
//     aggregate         InferenceTier::aggregate_epoch
//     infer             InferenceTier::infer_epoch
//       feedback (key = monitor)  the wrapped raw-packet fetcher
//     observe           HealthTracker::end_epoch, FlightRecorder, SloTracker,
//                       metrics snapshot + diff, per-epoch profile
//     store_append      DeploymentStore::put_*
//     store_commit      DeploymentStore::commit_epoch
//
// Given the same config, ruleset and packets, its alerts are byte-identical
// to the controller's; the benchmark checks that on every run.  Side probes
// (probe()) re-run single layers on the epoch's batches and aggregate,
// outside the root span.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "jaal.hpp"
#include "workload.hpp"

namespace perfbench {

/// Counts and waits the spans cannot carry, for one closed epoch.
struct EpochStats {
  std::uint64_t packets = 0;  ///< Ingested (not lost to a crashed monitor).
  std::size_t silent = 0;     ///< Flushes below n_min.
  std::size_t summaries = 0;
  double wire_bytes = 0.0;    ///< summarize::wire_bytes, summed.
  std::vector<double> wait_ms;  ///< Submit -> task start, per pooled flush.
  std::size_t ships = 0;
  double ship_us = 0.0;       ///< SummaryTransport::ship time, summed.
  std::size_t dropped = 0;
  std::size_t late = 0;
  std::size_t rolled_in = 0;
  std::size_t rows = 0;       ///< Aggregate rows.
  std::size_t feedback_calls = 0;
  std::size_t feedback_attempts = 0;  ///< Transport attempts, retries included.
  std::size_t feedback_giveups = 0;   ///< Retrievals that exhausted retries.
  std::uint64_t feedback_packets = 0;
  std::size_t via_feedback = 0;  ///< Alerts decided by raw analysis.
  std::size_t drift_events = 0;
  std::size_t store_records = 0;
  std::vector<jaal::inference::Alert> alerts;
};

/// Side-probe timings accumulated over probed batches.
struct ProbeStats {
  std::size_t batches = 0;
  double normalize_ms = 0.0;
  double svd_ms = 0.0;
  double svd_sweeps = 0.0;
  double kmeans_ms = 0.0;       ///< Full k-means (seeding + Lloyd).
  double kmeans_seed_ms = 0.0;  ///< t(max_iter 0) − (t(1) − t(0)): seeding.
  double kmeans_iterations = 0.0;
  std::size_t kmeans_capped = 0;  ///< Calls that hit max_iterations.
  std::size_t matches = 0;
  double match_ms = 0.0;
  std::size_t simd_batches = 0;
  double flush_scalar_ms = 0.0;
  double flush_simd_ms = 0.0;
};

class ComposedPipeline {
 public:
  /// Stands the layers up as JaalController's constructor does, except
  /// that the store is not attached to the tier: accepted summaries are
  /// persisted in the store phase, in the same order.  `tracer` (may be
  /// null) receives the layer spans; cfg.telemetry, when set, is wired
  /// into the layers like the controller wires it.
  ComposedPipeline(const jaal::core::JaalConfig& cfg,
                   std::vector<jaal::rules::Rule> rules,
                   jaal::telemetry::Tracer* tracer);

  ComposedPipeline(const ComposedPipeline&) = delete;
  ComposedPipeline& operator=(const ComposedPipeline&) = delete;

  /// Ingests one epoch's packets and closes the epoch.
  [[nodiscard]] EpochStats run_epoch(const EpochTraffic& traffic);

  /// Runs the side probes over the epoch just closed: normalize, SVD and
  /// k-means (full and seeding-only) on up to `batches` flushed monitor
  /// batches, InferenceEngine::match on the aggregate, and — when
  /// `simd_probe` — one monitor's flush_epoch under the scalar kernels and
  /// under the detected level.
  void probe(std::size_t batches, bool simd_probe, ProbeStats& out);

  [[nodiscard]] const jaal::store::DeploymentStore* store() const noexcept {
    return store_.get();
  }
  [[nodiscard]] double store_open_ms() const noexcept {
    return store_open_ms_;
  }
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->threads() : 1;
  }

 private:
  [[nodiscard]] jaal::telemetry::Span span(
      const char* name, const jaal::telemetry::SpanContext& parent,
      std::uint64_t key = 0) const;
  /// Records one flight event into the ring and/or the epoch's ops batch.
  void event(std::uint64_t epoch, jaal::observe::FlightEvent ev);
  void flush_all(std::uint64_t epoch,
                 const jaal::telemetry::SpanContext& parent,
                 std::vector<std::optional<jaal::summarize::MonitorSummary>>&
                     slots,
                 EpochStats& stats);

  jaal::core::JaalConfig cfg_;
  jaal::telemetry::Tracer* tracer_;
  std::shared_ptr<jaal::runtime::ThreadPool> pool_;
  std::vector<jaal::core::Monitor> monitors_;
  jaal::faults::SummaryTransport transport_;
  jaal::shard::InferenceTier tier_;
  jaal::observe::HealthTracker health_;
  std::unique_ptr<jaal::store::DeploymentStore> store_;
  double store_open_ms_ = 0.0;
  std::unique_ptr<jaal::observe::FlightRecorder> flight_;
  std::unique_ptr<jaal::observe::SloTracker> slo_;
  std::vector<jaal::summarize::MonitorSummary> carry_;
  jaal::telemetry::MetricsSnapshot prev_metrics_;
  std::vector<jaal::observe::FlightEvent> epoch_events_;
  std::uint64_t flight_seq_ = 0;
  double last_top_severity_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_lost_ = 0;

  /// Packets routed to each monitor and not yet summarized (a silent
  /// monitor keeps buffering), and each monitor's batch of the epoch just
  /// closed — the probes' input.
  std::vector<std::vector<jaal::packet::PacketRecord>> pending_;
  std::vector<std::vector<jaal::packet::PacketRecord>> last_batch_;
  const jaal::inference::AggregatedSummary* last_aggregate_ = nullptr;
  std::size_t probe_cursor_ = 0;
};

}  // namespace perfbench
