// Degraded-mode pipeline contract: an epoch with monitors crashed or
// summaries lost still produces a well-formed partial aggregate with scaled
// confidence and matching telemetry counters, and a seeded fault scenario is
// byte-identical across runs and across threads=1 vs threads=2.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "attack/generators.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/mix.hpp"

namespace jaal::core {
namespace {

struct FaultedRun {
  std::vector<EpochResult> epochs;
  std::string alert_log;  ///< Every alert, serialized field by field.
  std::string epoch_log;  ///< Per-epoch degraded-mode accounting.
  std::string jsonl;      ///< Deterministic telemetry export.
  telemetry::MetricsSnapshot snapshot;
  faults::TransportStats transport;
};

// The telemetry-pipeline operating point (Trace-1 background + DDoS from
// t=1 s, 2 monitors, 1 s epochs) with a fault scenario layered on.
FaultedRun run_faulted(std::size_t threads,
                       const faults::FaultScenario& scenario,
                       faults::LatePolicy late_policy,
                       double duration) {
  telemetry::Telemetry tel;

  trace::TraceProfile profile = trace::trace1_profile();
  profile.packets_per_second = 2000.0;
  trace::BackgroundTraffic background(profile, 7);
  attack::AttackConfig atk;
  atk.victim_ip = evaluation_victim_ip();
  atk.packets_per_second = 5000.0;
  atk.start_time = 1.0;
  atk.seed = 11;
  attack::DistributedSynFlood flood(atk);
  trace::TrafficMix mix(background, {&flood}, 0.10);

  JaalConfig cfg;
  cfg.summarizer.batch_size = 1000;
  cfg.summarizer.min_batch = 400;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 200;
  cfg.monitor_count = 2;
  cfg.epoch_seconds = 1.0;
  cfg.threads = threads;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.telemetry = &tel;
  cfg.faults = scenario;
  cfg.aggregation.late_policy = late_policy;
  JaalController controller(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              evaluation_rule_vars()));

  FaultedRun out;
  out.epochs = controller.run(mix, duration);

  std::ostringstream alerts, epochs;
  alerts.precision(17);
  epochs.precision(17);
  for (std::size_t i = 0; i < out.epochs.size(); ++i) {
    const EpochResult& e = out.epochs[i];
    epochs << "epoch=" << i << " reporting=" << e.monitors_reporting
           << " crashed=" << e.monitors_crashed
           << " dropped=" << e.summaries_dropped
           << " late=" << e.summaries_late
           << " rolled_in=" << e.summaries_rolled_in
           << " lost=" << e.packets_lost
           << " fraction=" << e.report_fraction << "\n";
    for (const inference::Alert& a : e.alerts) {
      alerts << i << " sid=" << a.sid << " matched=" << a.matched_packets
             << " feedback=" << a.via_feedback
             << " distributed=" << a.distributed
             << " confidence=" << a.confidence << "\n";
    }
  }
  out.alert_log = alerts.str();
  out.epoch_log = epochs.str();
  out.snapshot = tel.metrics.snapshot();
  out.jsonl = telemetry::to_jsonl(out.snapshot, tel.tracer.records(),
                                  {.include_timings = false});
  out.transport = controller.fault_stats();
  return out;
}

// One of two monitors crashes for epoch 1: that epoch must still produce a
// well-formed aggregate from the surviving monitor, report half confidence,
// and count the ingress the crashed monitor never observed.
TEST(DegradedPipeline, CrashedMonitorYieldsPartialAggregate) {
  faults::FaultScenario scenario;
  scenario.crashes.push_back({1, 1, 2});
  const FaultedRun run =
      run_faulted(1, scenario, faults::LatePolicy::kDiscard, 3.0);
  ASSERT_EQ(run.epochs.size(), 3u);

  const EpochResult& degraded = run.epochs[1];
  EXPECT_EQ(degraded.monitors_crashed, 1u);
  EXPECT_EQ(degraded.monitors_reporting, 1u);
  EXPECT_DOUBLE_EQ(degraded.report_fraction, 0.5);
  EXPECT_TRUE(degraded.degraded());
  EXPECT_GT(degraded.packets_lost, 0u);
  // The partial epoch still detects the flood (the surviving monitor sees
  // its share and the engine scales tau_c down by the report fraction).
  EXPECT_FALSE(degraded.alerts.empty());

  // Epochs outside the crash window are full.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(run.epochs[i].monitors_crashed, 0u) << i;
    EXPECT_DOUBLE_EQ(run.epochs[i].report_fraction, 1.0) << i;
    EXPECT_FALSE(run.epochs[i].degraded()) << i;
  }

  // Every alert carries its epoch's report fraction as confidence.
  for (const EpochResult& e : run.epochs) {
    for (const inference::Alert& a : e.alerts) {
      EXPECT_DOUBLE_EQ(a.confidence, e.report_fraction);
    }
  }
  EXPECT_EQ(run.transport.crashed_monitor_epochs, 1u);
}

std::uint64_t counter(const telemetry::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& e : snapshot.entries) {
    if (e.name == name) return e.counter;
  }
  return 0;
}

TEST(DegradedPipeline, TelemetryCountersMatchEpochAccounting) {
  faults::FaultScenario scenario;
  scenario.seed = 21;
  scenario.drop_rate = 0.5;
  scenario.crashes.push_back({0, 2, 3});
  const FaultedRun run =
      run_faulted(1, scenario, faults::LatePolicy::kDiscard, 4.0);

  std::uint64_t dropped = 0, crashed = 0, lost = 0, degraded = 0;
  for (const EpochResult& e : run.epochs) {
    dropped += e.summaries_dropped;
    crashed += e.monitors_crashed;
    lost += e.packets_lost;
    degraded += e.degraded() ? 1 : 0;
  }
  EXPECT_GT(dropped, 0u);  // drop_rate 0.5 over ~8 ships
  EXPECT_EQ(crashed, 1u);
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(counter(run.snapshot, "jaal_faults_summaries_dropped_total"),
            dropped);
  EXPECT_EQ(counter(run.snapshot, "jaal_faults_crashed_monitor_epochs_total"),
            crashed);
  EXPECT_EQ(counter(run.snapshot, "jaal_faults_packets_lost_total"), lost);
  EXPECT_EQ(counter(run.snapshot, "jaal_faults_degraded_epochs_total"),
            degraded);
  EXPECT_EQ(run.transport.summaries_dropped, dropped);
}

// The ISSUE acceptance scenario: 5% summary loss plus one monitor crashing
// at epoch 3.  Alerts, degraded-mode counters, and the full JSONL telemetry
// trace must be byte-identical across runs and across threads=1 vs 2.
TEST(DegradedPipeline, SeededScenarioIsByteIdenticalAcrossRunsAndThreads) {
  faults::FaultScenario scenario;
  scenario.seed = 5;
  scenario.drop_rate = 0.05;
  scenario.crashes.push_back({1, 3, 4});
  const FaultedRun a =
      run_faulted(1, scenario, faults::LatePolicy::kDiscard, 5.0);
  const FaultedRun b =
      run_faulted(1, scenario, faults::LatePolicy::kDiscard, 5.0);
  const FaultedRun pooled =
      run_faulted(2, scenario, faults::LatePolicy::kDiscard, 5.0);

  ASSERT_FALSE(a.epoch_log.empty());
  EXPECT_FALSE(a.alert_log.empty());  // the flood must still be detected
  EXPECT_EQ(a.epoch_log, b.epoch_log);
  EXPECT_EQ(a.alert_log, b.alert_log);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.epoch_log, pooled.epoch_log);
  EXPECT_EQ(a.alert_log, pooled.alert_log);
  EXPECT_EQ(a.jsonl, pooled.jsonl);
  // The crash epoch really degraded (the scenario is not a no-op).
  EXPECT_EQ(a.epochs.at(3).monitors_crashed, 1u);
  EXPECT_LT(a.epochs.at(3).report_fraction, 1.0);
}

// A delay far past the deadline makes (almost) every summary late.  Under
// kRollForward the late summaries are carried into the next epoch's
// aggregate; under kDiscard they are counted and dropped on the floor.
TEST(DegradedPipeline, RollForwardCarriesLateSummariesIntoNextEpoch) {
  faults::FaultScenario scenario;
  scenario.delay_mean_s = 1000.0;  // mean delay >> the 1 s deadline
  const FaultedRun rolled =
      run_faulted(1, scenario, faults::LatePolicy::kRollForward, 3.0);
  ASSERT_EQ(rolled.epochs.size(), 3u);
  EXPECT_GT(rolled.epochs[0].summaries_late, 0u);
  EXPECT_GT(rolled.epochs[1].summaries_rolled_in, 0u);

  const FaultedRun discarded =
      run_faulted(1, scenario, faults::LatePolicy::kDiscard, 3.0);
  EXPECT_GT(discarded.epochs[0].summaries_late, 0u);
  for (const EpochResult& e : discarded.epochs) {
    EXPECT_EQ(e.summaries_rolled_in, 0u);
  }
}

// ---- Engine-level degraded-mode semantics -------------------------------

std::vector<rules::Rule> flood_ruleset() {
  return rules::parse_rules(
      "alert tcp any any -> 203.0.10.5 any (msg:\"flood\"; flags:S; "
      "detection_filter: count 100, seconds 2; sid:1;)",
      evaluation_rule_vars());
}

inference::AggregatedSummary aggregate_at_distance(double dist,
                                                   std::uint64_t count) {
  inference::AggregatedSummary agg;
  agg.centroids = linalg::Matrix(1, packet::kFieldCount);
  auto row = agg.centroids.row(0);
  row[packet::index(packet::FieldIndex::kIpDstAddr)] =
      packet::normalize_field(packet::FieldIndex::kIpDstAddr,
                              packet::make_ip(203, 0, 10, 5));
  row[packet::index(packet::FieldIndex::kTcpFlags)] = 2.0 / 63.0 + 2.0 * dist;
  agg.counts = {count};
  agg.origin = {0};
  agg.local_index = {0};
  return agg;
}

TEST(DegradedPipeline, EngineScalesCountThresholdByReportFraction) {
  inference::EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.15};
  inference::InferenceEngine engine(flood_ruleset(), cfg);
  // 60 matched packets against tau_c = 100: a full epoch stays silent.
  const auto agg = aggregate_at_distance(0.0, 60);
  EXPECT_TRUE(engine.infer(agg, nullptr).empty());
  // Half the monitors reported, so half the attack mass is visible: the
  // scaled threshold (50) now trips, and the alert carries the fraction.
  engine.set_report_fraction(0.5);
  const auto alerts = engine.infer(agg, nullptr);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_DOUBLE_EQ(alerts[0].confidence, 0.5);
  // Restoring 1.0 restores the exact full-epoch behavior.
  engine.set_report_fraction(1.0);
  EXPECT_TRUE(engine.infer(agg, nullptr).empty());
}

TEST(DegradedPipeline, FailedRetrievalFallsBackToSummaryOnlyInference) {
  inference::EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};  // strict misses, loose hits
  inference::InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  // Retrieval fails outright (nullopt, retries exhausted upstream): the
  // engine must fall back to the loose-threshold decision — alert — rather
  // than treating the failure as exonerating evidence.
  std::size_t fetches = 0;
  const auto alerts = engine.infer(
      agg, [&](summarize::MonitorId, const std::vector<std::size_t>&)
               -> std::optional<std::vector<packet::PacketRecord>> {
        ++fetches;
        return std::nullopt;
      });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_FALSE(alerts[0].via_feedback);
  EXPECT_EQ(fetches, 1u);
  EXPECT_EQ(engine.stats().feedback_requests, 1u);
  EXPECT_EQ(engine.stats().feedback_fallbacks, 1u);
  EXPECT_EQ(engine.stats().raw_packets_fetched, 0u);
}

}  // namespace
}  // namespace jaal::core
