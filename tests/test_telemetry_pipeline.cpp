// The end-to-end telemetry contract on a real deployment: the deterministic
// JSONL trace of a seeded run is byte-identical across runs (wall-clock
// durations excluded), the span tree has the documented pipeline shape, and
// the thread pool's RuntimeStats fold into the deployment registry.
#include <gtest/gtest.h>

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

struct DeploymentTrace {
  std::string jsonl;  ///< Deterministic export (no wall-clock fields).
  std::vector<telemetry::SpanRecord> spans;
  telemetry::MetricsSnapshot snapshot;
  std::uint64_t packets = 0;
  std::size_t epochs_reporting = 0;
};

// One seeded 3-epoch deployment (Trace-1 background + DDoS) with a fresh
// Telemetry bundle, the operating point the integration tests use.
DeploymentTrace run_deployment(std::size_t threads) {
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
  JaalController controller(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              evaluation_rule_vars()));

  DeploymentTrace out;
  for (const EpochResult& epoch : controller.run(mix, 3.0)) {
    out.packets += epoch.packets;
    out.epochs_reporting += epoch.monitors_reporting > 0 ? 1 : 0;
  }
  out.snapshot = tel.metrics.snapshot();
  out.spans = tel.tracer.records();
  out.jsonl = telemetry::to_jsonl(out.snapshot, out.spans,
                                  {.include_timings = false});
  return out;
}

const telemetry::SpanRecord* find_span(
    const std::vector<telemetry::SpanRecord>& spans, const std::string& name,
    std::uint64_t trace_id) {
  for (const auto& s : spans) {
    if (s.name == name && s.trace_id == trace_id) return &s;
  }
  return nullptr;
}

// The acceptance criterion: a seeded run's JSONL trace is byte-identical
// across two runs once wall-clock durations are excluded.
TEST(TelemetryPipeline, SeededTraceIsByteIdenticalAcrossRuns) {
  const DeploymentTrace a = run_deployment(1);
  const DeploymentTrace b = run_deployment(1);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_GT(a.packets, 0u);
  EXPECT_GT(a.epochs_reporting, 0u);
  EXPECT_EQ(a.jsonl, b.jsonl);
  // And the export is not trivially empty of content.
  EXPECT_NE(a.jsonl.find("\"span\""), std::string::npos);
  EXPECT_NE(a.jsonl.find("jaal_monitor_packets_observed_total"),
            std::string::npos);
  // Wall-clock fields stay out of the deterministic export.
  EXPECT_EQ(a.jsonl.find("duration_ms"), std::string::npos);
  EXPECT_EQ(a.jsonl.find("_ms\""), std::string::npos);
}

TEST(TelemetryPipeline, SerialAndParallelTracesMatch) {
  // Threads change wall clock only; the deterministic trace (span ids,
  // attrs, sim-time metrics) is identical.  jaal_runtime_* metrics exist
  // only in the pool build and are wall-clock, so the export excludes them.
  const DeploymentTrace serial = run_deployment(1);
  const DeploymentTrace pooled = run_deployment(2);
  EXPECT_EQ(serial.jsonl, pooled.jsonl);
}

TEST(TelemetryPipeline, EpochTraceHasThePipelineShape) {
  const DeploymentTrace run = run_deployment(1);
  // Find a trace where monitors reported (epoch 0 may be silent depending
  // on phase; with 2000 pps and 1 s epochs every epoch reports).
  const auto* epoch = find_span(run.spans, "epoch", 0);
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->parent_id, 0u);
  EXPECT_GE(epoch->sim_time, 0.0);

  const char* stages[] = {"observe", "summarize", "ship",
                          "aggregate", "infer", "postprocess"};
  for (const char* stage : stages) {
    const auto* span = find_span(run.spans, stage, 0);
    ASSERT_NE(span, nullptr) << "missing stage span: " << stage;
    EXPECT_EQ(span->parent_id, epoch->span_id) << stage;
    EXPECT_EQ(span->trace_id, epoch->trace_id) << stage;
  }

  // svd/kmeans hang off "summarize", one per reporting monitor.
  const auto* summarize = find_span(run.spans, "summarize", 0);
  std::size_t svd = 0, kmeans = 0;
  for (const auto& s : run.spans) {
    if (s.trace_id != 0) continue;
    if (s.name == "svd") {
      ++svd;
      EXPECT_EQ(s.parent_id, summarize->span_id);
    }
    if (s.name == "kmeans") {
      ++kmeans;
      EXPECT_EQ(s.parent_id, summarize->span_id);
    }
  }
  EXPECT_EQ(svd, 2u);  // both monitors report in epoch 0
  EXPECT_EQ(kmeans, 2u);

  // Every span carries the epoch's simulated close time, never wall clock.
  for (const auto& s : run.spans) {
    if (s.trace_id == 0) {
      EXPECT_DOUBLE_EQ(s.sim_time, epoch->sim_time);
    }
  }
}

TEST(TelemetryPipeline, MetricsAgreeWithControllerAccounting) {
  const DeploymentTrace run = run_deployment(1);
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& e : run.snapshot.entries) {
      if (e.name == name) return e.counter;
    }
    return 0;
  };
  EXPECT_EQ(counter("jaal_monitor_packets_observed_total"), run.packets);
  EXPECT_GT(counter("jaal_summarize_batches_total"), 0u);
  EXPECT_GT(counter("jaal_inference_questions_evaluated_total"), 0u);
  EXPECT_EQ(counter("jaal_monitor_packets_malformed_total"), 0u);
}

TEST(TelemetryPipeline, RuntimeStatsFoldIntoTheDeploymentRegistry) {
  telemetry::Telemetry tel;
  runtime::ThreadPool pool(2);
  pool.stats().bind(&tel.metrics);
  pool.submit([] {}).wait();

  bool saw_tasks = false;
  for (const auto& e : tel.metrics.snapshot().entries) {
    if (e.name == "jaal_runtime_tasks_submitted_total") {
      saw_tasks = true;
      EXPECT_GE(e.counter, 1u);
    }
  }
  EXPECT_TRUE(saw_tasks);

  // The classic snapshot view is reconstructed from the same registry.
  const runtime::RuntimeStatsSnapshot snap = pool.stats().snapshot();
  EXPECT_GE(snap.tasks_submitted, 1u);
}

}  // namespace
}  // namespace jaal::core
