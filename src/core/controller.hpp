// JaalController: end-to-end orchestration of one deployment (Fig. 1).
//
// Distributes a packet stream across monitors (each flow observed by exactly
// one monitor — here via consistent flow hashing, which realizes the §6
// "monitored exactly once" invariant; path-aware load balancing is evaluated
// separately in jaal_assign), drives epochs, aggregates summaries, runs the
// inference engine with the feedback loop wired to the monitors, and
// accounts every byte moved.
//
// Fault tolerance: every monitor->engine summary and every feedback
// retrieval crosses a faults::SummaryTransport.  close_epoch() aggregates
// whatever arrived by the epoch deadline into a (possibly partial)
// AggregatedSummary, scales the engine's match thresholds by the fraction of
// monitors reporting, and counts everything that went missing.  With the
// default fault-free scenario the pipeline is bit-identical to a perfect
// in-process hand-off.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/epoch_recorder.hpp"
#include "core/monitor.hpp"
#include "faults/transport.hpp"
#include "inference/engine.hpp"
#include "observe/observe.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/tier.hpp"
#include "store/store.hpp"
#include "telemetry/profile.hpp"
#include "trace/background.hpp"

namespace jaal::core {

/// §5.1 names two ways the controller fetches summaries: periodically, or
/// when some monitor accumulates a full batch of n packets (at which point
/// every other monitor with at least n_min packets reports too).
enum class EpochTrigger : std::uint8_t { kPeriodic, kBatchTriggered };

/// Knobs shared by every way of standing up a deployment.  Both the live
/// controller (JaalConfig) and the evaluation harness (core::TrialConfig)
/// extend this one struct, so a deployment knob cannot drift between the
/// harness and the controller.
struct DeploymentConfig {
  summarize::SummarizerConfig summarizer;
  std::size_t monitor_count = 4;
  double epoch_seconds = 2.0;  ///< The §7 epoch (periodic trigger).
};

struct JaalConfig : DeploymentConfig {
  inference::EngineConfig engine;
  EpochTrigger trigger = EpochTrigger::kPeriodic;
  /// Execution-runtime width.  0 resolves from the JAAL_THREADS environment
  /// variable (default 1); 1 is the serial path (no pool, no extra
  /// threads); >1 creates a shared ThreadPool and runs epoch flushes,
  /// k-means assignment, and question matching on it.  Results are
  /// bit-identical across all settings — threads only change wall clock.
  std::size_t threads = 0;
  /// Deployment-wide telemetry sink.  When set, every layer is wired in at
  /// construction: monitors (packet/batch counters, SVD/k-means
  /// instrumentation), the inference engine (question/alert/feedback
  /// counters and spans), the summary transport (jaal_faults_* counters),
  /// the thread pool's RuntimeStats (rebound into this registry), and
  /// close_epoch() emits one trace per epoch
  /// (observe -> summarize -> ship -> aggregate -> infer -> postprocess).
  /// Null (the default) keeps the pipeline telemetry-free: the overhead is
  /// one pointer check at the instrumented sites.  Must outlive the
  /// controller.
  telemetry::Telemetry* telemetry = nullptr;
  /// Seeded failure scenario on the monitor->engine control plane.  The
  /// default is fault-free: perfect delivery, no retries, the historical
  /// behavior bit-for-bit.  FaultScenario::shard_crashes flows to the
  /// inference tier (tier outages), everything else to the transport.
  faults::FaultScenario faults;
  /// The aggregation knobs — deadline, late-summary fate, report-fraction
  /// threshold scaling — shared by the transport deadline and the inference
  /// tier (see inference::AggregationPolicy).
  inference::AggregationPolicy aggregation;
  /// Carries no settings (see shard::ShardingConfig); kept for the
  /// end-to-end benchmark, which still sets it.
  shard::ShardingConfig sharding;
  /// Detection observability: alert provenance capture and summary-quality
  /// drift monitoring (both default on; provenance additionally requires
  /// engine.record_provenance, fidelity recording summarizer.record_fidelity
  /// — all default on).
  observe::ObserveConfig observe;
  /// Persistence (src/store): when non-empty, every closed epoch's
  /// aggregated summaries, alerts and ops records are appended to one
  /// time-sharded log under this directory, closed by one EpochMeta
  /// commit record per epoch.  A controller constructed over an existing
  /// store resumes at the epoch after the last committed one (torn shard
  /// tails and uncommitted epochs are truncated on open); subsequent
  /// epochs are byte-identical to an uninterrupted run under the default
  /// LatePolicy::kDiscard.  Under kRollForward, late summaries still
  /// awaiting roll-forward at the moment of the crash live only in memory
  /// and are not replayed, so the first resumed epoch aggregates without
  /// them.  Empty (default) = no
  /// persistence.  Store I/O failures never interrupt the deployment: the
  /// store goes inert (see store::DeploymentStore::failed).
  std::string store_dir;
  /// Epochs per .jstore shard file of the store log (shard roll =
  /// fdatasync of the finished shard).
  std::uint64_t store_epochs_per_shard = 64;
  /// Persist the operational timeline: one kMetrics record (the metrics
  /// registry's delta since the previous commit — deterministic metrics
  /// only, see store/metrics_codec) and one kEvents flight-event batch per
  /// epoch, committed under the epoch's EpochMeta.  jaal_doctor --store
  /// replays them offline into the exact live HealthReport / SLO summary.
  /// Requires store_dir; the metrics side additionally requires telemetry.
  /// Off by default (the store then holds no kMetrics / kEvents records).
  bool store_metrics = false;
};

/// Everything observed during one epoch.  The degraded-mode fields are all
/// zero / 1.0 on a fault-free epoch.
struct EpochResult {
  double end_time = 0.0;
  std::vector<inference::Alert> alerts;
  /// Summaries aggregated on time this epoch.
  std::size_t monitors_reporting = 0;
  std::uint64_t packets = 0;
  std::size_t monitors_crashed = 0;   ///< In a crash window this epoch.
  std::size_t summaries_dropped = 0;  ///< Lost on the transport.
  std::size_t summaries_late = 0;     ///< Arrived past the deadline.
  std::size_t summaries_rolled_in = 0;  ///< Late arrivals carried in from
                                        ///< earlier epochs (kRollForward).
  std::uint64_t packets_lost = 0;     ///< Ingress lost to crashed monitors.
  /// Summaries delivered by the transport but refused because the
  /// inference tier was down (faults::ShardCrashWindow).  They count
  /// against report_fraction exactly like transport drops.
  std::size_t summaries_lost_shard = 0;
  /// Summaries delivered in time over summaries expected (produced plus
  /// crashed); the engine scales its count thresholds by it and stamps it
  /// on every alert as Alert::confidence.
  double report_fraction = 1.0;
  /// Per-monitor summary fidelity this epoch (monitor order; silent and
  /// crashed monitors absent).  Empty when fidelity recording is off.
  std::vector<observe::FidelityStats> fidelity;
  /// Drift transitions raised while closing this epoch.
  std::vector<observe::HealthEvent> drift_events;
  /// The caution signal in effect for this epoch's inference (fraction of
  /// monitors whose summary fidelity is drifting).
  double caution = 0.0;
  /// Wall-clock critical path of this epoch's close (telemetry + profiling
  /// on; nullopt otherwise).  Stage self-times, the longest root->leaf
  /// path, and straggler attribution across sibling spans — see
  /// telemetry::CriticalPath.
  std::optional<telemetry::CriticalPath> profile;

  [[nodiscard]] bool degraded() const noexcept {
    return report_fraction < 1.0;
  }
};

class JaalController {
 public:
  /// Throws std::invalid_argument for zero monitors or an invalid fault
  /// scenario (construction-time misconfiguration only; the per-epoch path
  /// never throws — see the error policy in jaal.hpp).
  JaalController(const JaalConfig& cfg, std::vector<rules::Rule> rules);

  /// Feeds packets from `source` until `duration` simulated seconds elapse,
  /// closing an epoch every cfg.epoch_seconds.  Returns per-epoch results.
  [[nodiscard]] std::vector<EpochResult> run(trace::PacketSource& source,
                                             double duration);

  /// Routes one packet to its monitor (flow-hash); exposed for tests and
  /// for callers that drive epochs manually.  Packets bound for a monitor
  /// inside a crash window are lost (counted, never observed).
  void ingest(const packet::PacketRecord& pkt);

  /// Closes the current epoch: flush monitors, ship summaries through the
  /// fault transport, aggregate what arrived in time, infer.
  [[nodiscard]] EpochResult close_epoch(double now);

  /// Aggregate communication statistics over all monitors plus feedback.
  [[nodiscard]] CommStats comm() const;

  /// The inference tier the controller drives.
  [[nodiscard]] const shard::InferenceTier& tier() const noexcept {
    return tier_;
  }
  /// The tier's engine (stats, questions, thresholds).
  [[nodiscard]] const inference::InferenceEngine& engine() const noexcept {
    return tier_.engine();
  }
  [[nodiscard]] const std::vector<Monitor>& monitors() const noexcept {
    return monitors_;
  }
  /// Transport-level fault accounting (drops, lateness, retry totals).
  [[nodiscard]] const faults::TransportStats& fault_stats() const noexcept {
    return transport_.stats();
  }

  /// The deployment's health ledger (fidelity baselines, drift state,
  /// degradation accounting) — close_epoch feeds it every epoch.
  [[nodiscard]] const observe::HealthTracker& health() const noexcept {
    return health_;
  }
  /// Assembles the epoch health report from everything seen so far.  The
  /// scoreboard is left empty (a live deployment has no labels); harnesses
  /// with labeled trials fill it in (see examples/jaal_doctor).
  [[nodiscard]] observe::HealthReport health_report() const {
    return health_.report();
  }

  /// Resolved execution-runtime width (1 when running serial).
  [[nodiscard]] std::size_t threads() const noexcept {
    return pool_ ? pool_->threads() : 1;
  }

  /// The epoch close_epoch() will stamp next.  0 on a fresh deployment;
  /// last committed + 1 when resumed from a store.
  [[nodiscard]] std::uint64_t next_epoch() const noexcept {
    return epoch_index_;
  }

  /// The persistence layer, when JaalConfig::store_dir is set (null
  /// otherwise).  Exposed for health checks: store()->failed(),
  /// torn_bytes_truncated(), last_committed_epoch().
  [[nodiscard]] const store::DeploymentStore* store() const noexcept {
    return store_.get();
  }

  /// Runtime counters (tasks, queue high-water); nullopt when running
  /// serial.  Per-stage time is in EpochResult::profile.
  [[nodiscard]] std::optional<runtime::RuntimeStatsSnapshot> runtime_stats()
      const;

  /// The flight recorder, when ObserveConfig::flight_recorder is on (null
  /// otherwise).  dump_jsonl() gives the on-demand dump.
  [[nodiscard]] const observe::FlightRecorder* flight_recorder()
      const noexcept {
    return rec_.flight();
  }
  /// The SLO tracker, when ObserveConfig::slo is on (null otherwise).
  [[nodiscard]] const observe::SloTracker* slo() const noexcept {
    return rec_.slo();
  }
  /// The most recent automatic flight dump — taken when an epoch close
  /// raises the health report's top finding severity above its previous
  /// high-water mark.  Empty until the first regression.
  [[nodiscard]] const std::string& last_flight_dump() const noexcept {
    return rec_.last_flight_dump();
  }

 private:
  /// Flushes every live monitor's epoch batch into a per-monitor slot.
  [[nodiscard]] std::vector<std::optional<summarize::MonitorSummary>>
  flush_monitors(std::uint64_t epoch, const telemetry::SpanContext& ctx);
  /// Aggregate -> infer -> postprocess over what the tier accepted.
  void infer(EpochResult& result);
  /// Health ledger, close-out report and store commit.
  void close_out(EpochResult& result, std::uint64_t epoch,
                 std::uint64_t fallbacks_before);

  JaalConfig cfg_;
  std::shared_ptr<runtime::ThreadPool> pool_;  ///< Null when threads == 1.
  std::vector<Monitor> monitors_;
  faults::SummaryTransport transport_;
  shard::InferenceTier tier_;
  observe::HealthTracker health_;
  /// Every span, flight event, metric, SLO sample and profile of the epoch
  /// pipeline is reported through here.
  EpochRecorder rec_;
  /// Persistence sink (JaalConfig::store_dir); null when persistence is
  /// off.
  std::unique_ptr<store::DeploymentStore> store_;
  /// Late summaries awaiting the next epoch (LatePolicy::kRollForward).
  std::vector<summarize::MonitorSummary> carry_;
  std::uint64_t epoch_packets_ = 0;
  std::uint64_t epoch_lost_packets_ = 0;
  std::uint64_t epoch_index_ = 0;  ///< Trace id of the next epoch's trace.
};

}  // namespace jaal::core
