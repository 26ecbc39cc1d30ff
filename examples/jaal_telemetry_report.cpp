// jaal_telemetry_report — the observability walkthrough: one seeded Trace-1
// deployment run end to end with the full telemetry stack attached, then the
// cost of detection reported next to its quality.
//
//   metrics      every layer writes into one MetricsRegistry (monitors,
//                summarizers, inference engine, thread-pool runtime, links)
//   traces       each epoch is one causal trace: observe -> summarize(svd,
//                kmeans) -> ship -> aggregate -> infer -> postprocess ->
//                feedback, with deterministic span ids
//   links        the monitor->controller ship leg crosses simulated
//                LinkQueues (finite buffers, tail drops, sim-time keyed)
//   exports      Prometheus text + JSONL dump written beside the binary
//   ROC          a small threshold sweep so cost sits next to quality
//
//   $ ./jaal_telemetry_report
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "jaal.hpp"
#include "telemetry/chrome_trace.hpp"

namespace {

using jaal::telemetry::MetricsSnapshot;

const MetricsSnapshot::Entry* find_metric(const MetricsSnapshot& snap,
                                          const std::string& name) {
  for (const auto& e : snap.entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double counter_of(const MetricsSnapshot& snap, const std::string& name) {
  const auto* e = find_metric(snap, name);
  return e == nullptr ? 0.0 : static_cast<double>(e->counter);
}

// Sums a labeled counter family, e.g. jaal_inference_alerts_total{sid="..."}
// across all sids (the flat total Prometheus would compute with sum by()).
double counter_family_sum(const MetricsSnapshot& snap,
                          const std::string& base) {
  double sum = 0.0;
  const std::string prefix = base + "{";
  for (const auto& e : snap.entries) {
    if (e.name == base || e.name.rfind(prefix, 0) == 0) {
      sum += static_cast<double>(e.counter);
    }
  }
  return sum;
}

void print_histogram_row(const MetricsSnapshot& snap, const std::string& name,
                         const char* label) {
  const auto* e = find_metric(snap, name);
  if (e == nullptr || e->histogram.count == 0) return;
  const auto& h = e->histogram;
  std::printf("  %-26s %6llu obs   mean %8.3f   max %8.3f\n", label,
              static_cast<unsigned long long>(h.count),
              h.sum / static_cast<double>(h.count), h.max);
}

}  // namespace

int main() {
  using namespace jaal;

  telemetry::Telemetry tel;

  // --- 1. A seeded Trace-1 deployment: MAWI-like background (scaled to a
  // fast smoke-test rate) plus a distributed SYN flood, flow-hashed over two
  // monitors at the paper's operating point (n=1000, r=12, k=200).
  trace::TraceProfile profile = trace::trace1_profile();
  profile.packets_per_second = 2000.0;  // ~2000-pkt epochs: tau_c_scale = 1
  trace::BackgroundTraffic background(profile, 7);
  attack::AttackConfig atk;
  atk.victim_ip = core::evaluation_victim_ip();
  atk.packets_per_second = 5000.0;  // throttled to the 10% injection cap
  atk.start_time = 1.0;
  atk.seed = 11;
  attack::DistributedSynFlood flood(atk);
  trace::TrafficMix mix(background, {&flood}, 0.10);

  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 1000;
  cfg.summarizer.min_batch = 400;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 200;  // k/n = 0.2, the paper's sweet spot
  cfg.monitor_count = 2;
  cfg.epoch_seconds = 1.0;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.telemetry = &tel;
  const auto ruleset = rules::parse_rules(rules::default_ruleset_text(),
                                          core::evaluation_rule_vars());
  core::JaalController controller(cfg, ruleset);

  // --- 2. The ship leg: each monitor's summaries cross a simulated link
  // with a finite queue.  Stats are keyed by simulated time, so drop logs
  // and high-water marks are identical across runs.
  netsim::EventQueue events;
  std::vector<std::unique_ptr<netsim::LinkQueue>> links;
  for (std::size_t m = 0; m < cfg.monitor_count; ++m) {
    netsim::LinkConfig lcfg;
    lcfg.name = 'm' + std::to_string(m) + "-ctrl";
    lcfg.rate_bytes_per_s = 250e3;
    lcfg.queue_limit_bytes = 8 * 1024;
    links.push_back(std::make_unique<netsim::LinkQueue>(events, lcfg));
    links.back()->set_telemetry(&tel);
  }
  std::vector<std::uint64_t> shipped(cfg.monitor_count, 0);

  std::printf("running 6 simulated seconds of Trace-1 + DDoS "
              "(telemetry attached)\n");
  const double start = mix.peek_time();
  const double duration = 6.0;
  double epoch_end = start + cfg.epoch_seconds;
  std::size_t alerts_total = 0;
  std::size_t epochs_closed = 0;
  MetricsSnapshot warmup_snap;  // registry state after the first 3 epochs
  telemetry::ProfileReport profile_report;  // cross-epoch critical paths

  auto close_and_ship = [&](double t) {
    const core::EpochResult result = controller.close_epoch(t);
    alerts_total += result.alerts.size();
    if (result.profile) profile_report.add(*result.profile);
    // Drain the event queue up to the epoch boundary, then offer this
    // epoch's summary bytes onto each monitor's link in MTU-sized frames.
    (void)events.run_until(t);
    for (std::size_t m = 0; m < links.size(); ++m) {
      const std::uint64_t total = controller.monitors()[m].comm().summary_bytes;
      std::uint64_t to_ship = total - shipped[m];
      shipped[m] = total;
      while (to_ship > 0) {
        const std::size_t frame =
            static_cast<std::size_t>(to_ship > 1500 ? 1500 : to_ship);
        (void)links[m]->offer(frame);
        to_ship -= frame;
      }
    }
    std::printf("  t=%.1fs: %zu/%zu monitors reported, %llu pkts, "
                "%zu alerts\n",
                t, result.monitors_reporting, controller.monitors().size(),
                static_cast<unsigned long long>(result.packets),
                result.alerts.size());
    if (++epochs_closed == 3) warmup_snap = tel.metrics.snapshot();
  };

  while (mix.peek_time() - start < duration) {
    if (mix.peek_time() >= epoch_end) {
      close_and_ship(epoch_end);
      epoch_end += cfg.epoch_seconds;
      continue;
    }
    controller.ingest(mix.next());
  }
  close_and_ship(epoch_end);
  (void)events.run_until(epoch_end + 1.0);  // let the links drain
  // Snapshot here so the ROC sweep's cost can be isolated with
  // MetricsSnapshot::diff below.
  const MetricsSnapshot deployment_snap = tel.metrics.snapshot();

  // --- 3. A small ROC sweep so the cost report sits next to the quality
  // numbers it buys.
  core::TrialConfig tcfg;
  tcfg.summarizer = cfg.summarizer;
  tcfg.monitor_count = 2;  // 2000-packet window: tau_c_scale = 1
  tcfg.profile = trace::trace1_profile();
  tcfg.attack_intensity_min = 1.0;
  tcfg.attack_intensity_max = 1.0;
  tcfg.seed = 5;
  const packet::AttackType target = packet::AttackType::kDistributedSynFlood;
  const std::vector<packet::AttackType> attacks = {target};
  const auto trials = core::make_trial_set(attacks, 3, 3, tcfg);
  const std::vector<double> taus = {0.002, 0.008, 0.02, 0.06};
  const std::vector<double> scales = {1.0};
  const core::RocCurve roc = core::roc_sweep(
      trials, target, ruleset, taus, scales, core::tau_c_scale_for(tcfg));

  // --- 4. The cost report, read back from the registry.
  const MetricsSnapshot snap = tel.metrics.snapshot();
  std::printf("\n----- detection quality (distributed SYN flood) -----\n");
  std::printf("  deployment run: %zu alerts over %.0f s\n", alerts_total,
              duration);
  std::printf("  ROC sweep (%zu trials): AUC = %.3f, TPR@FPR<=0.10 = %.3f\n",
              trials.size(), roc.auc(), roc.tpr_at_fpr(0.10));

  std::printf("\n----- what it cost -----\n");
  std::printf("  packets observed          %.0f (malformed %.0f, "
              "oversized %.0f dropped)\n",
              counter_of(snap, "jaal_monitor_packets_observed_total"),
              counter_of(snap, "jaal_monitor_packets_malformed_total"),
              counter_of(snap, "jaal_monitor_packets_oversized_total"));
  std::printf("  batches summarized        %.0f (%.0f split / %.0f combined "
              "format, %.0f silent epochs)\n",
              counter_of(snap, "jaal_summarize_batches_total"),
              counter_of(snap, "jaal_summarize_split_format_total"),
              counter_of(snap, "jaal_summarize_combined_format_total"),
              counter_of(snap, "jaal_monitor_silent_epochs_total"));
  const core::CommStats comm = controller.comm();
  std::printf("  bytes: %llu raw -> %llu summary + %llu feedback "
              "(%.1f%% of raw)\n",
              static_cast<unsigned long long>(comm.raw_header_bytes),
              static_cast<unsigned long long>(comm.summary_bytes),
              static_cast<unsigned long long>(comm.feedback_bytes),
              100.0 * comm.overhead_ratio());
  print_histogram_row(snap, "jaal_summarize_svd_ms", "svd ms");
  print_histogram_row(snap, "jaal_summarize_svd_sweeps", "svd sweeps");
  print_histogram_row(snap, "jaal_summarize_kmeans_ms", "kmeans ms");
  print_histogram_row(snap, "jaal_summarize_kmeans_iterations",
                      "kmeans iterations");
  std::printf("  inference: %.0f questions (%.0f matched), %.0f alerts, "
              "%.0f feedback requests, %.0f raw packets pulled\n",
              counter_of(snap, "jaal_inference_questions_evaluated_total"),
              counter_of(snap, "jaal_inference_questions_matched_total"),
              counter_family_sum(snap, "jaal_inference_alerts_total"),
              counter_of(snap, "jaal_inference_feedback_requests_total"),
              counter_of(snap, "jaal_inference_raw_packets_fetched_total"));

  // What the post-warmup epochs alone cost: the registry is monotonic, so
  // the window between two snapshots is just MetricsSnapshot::diff.
  const MetricsSnapshot window = deployment_snap.diff(warmup_snap);
  std::printf("\n----- epochs 4..%zu only (MetricsSnapshot::diff) -----\n",
              epochs_closed);
  std::printf("  packets observed          %.0f\n",
              counter_of(window, "jaal_monitor_packets_observed_total"));
  std::printf("  batches summarized        %.0f\n",
              counter_of(window, "jaal_summarize_batches_total"));
  std::printf("  alerts raised             %.0f\n",
              counter_family_sum(window, "jaal_inference_alerts_total"));

  std::printf("\n----- ship links (simulated, deterministic) -----\n");
  for (const auto& link : links) {
    std::printf("  %-10s forwarded %llu msgs / %llu bytes, dropped %llu "
                "(high water %zu B)\n",
                link->config().name.c_str(),
                static_cast<unsigned long long>(link->messages_forwarded()),
                static_cast<unsigned long long>(link->bytes_forwarded()),
                static_cast<unsigned long long>(link->drops()),
                link->queue_high_water_bytes());
  }

  std::printf("\n----- trace spans -----\n");
  const auto spans = tel.tracer.records();
  std::size_t svd_spans = 0, feedback_spans = 0;
  for (const auto& s : spans) {
    svd_spans += s.name == "svd" ? 1 : 0;
    feedback_spans += s.name == "feedback" ? 1 : 0;
  }
  // Highest trace id + 1 == epoch count (the striped tracer returns spans
  // grouped by stripe, so the last record is not necessarily the newest).
  std::uint64_t max_trace = 0;
  for (const auto& s : spans) max_trace = std::max(max_trace, s.trace_id);
  std::printf("  %zu spans across %llu epoch traces "
              "(%zu svd, %zu feedback)\n",
              spans.size(),
              static_cast<unsigned long long>(
                  spans.empty() ? 0 : max_trace + 1),
              svd_spans, feedback_spans);

  // --- 4b. Where the wall clock went: the cross-epoch critical-path table
  // from the per-epoch profiler (stage self-times, % of total, how often
  // each stage sat on the longest path).
  std::printf("\n----- critical path (per-epoch profiler) -----\n");
  std::fputs(profile_report.to_text().c_str(), stdout);

  // --- 5. Exports: the operator-facing dumps.
  {
    std::ofstream prom("jaal_telemetry_report.prom");
    prom << telemetry::prometheus_text(snap);
  }
  {
    std::ofstream jsonl("jaal_telemetry_report.jsonl");
    jsonl << telemetry::to_jsonl(snap, spans);
  }
  {
    // Wall-clock Chrome trace: load in Perfetto (ui.perfetto.dev) or
    // chrome://tracing to see the epoch pipeline laid out on a timeline.
    std::ofstream trace("jaal_telemetry_report.trace.json");
    trace << telemetry::export_chrome_trace(spans);
  }
  {
    // Deterministic variants: unit-weight trace (byte-identical across
    // runs/threads) and the profiler's stage table as JSONL.
    telemetry::ChromeTraceOptions det;
    det.mode = telemetry::DurationMode::kDeterministic;
    std::ofstream trace("jaal_telemetry_report.det.trace.json");
    trace << telemetry::export_chrome_trace(spans, det);
    std::ofstream pj("jaal_telemetry_report.profile.jsonl");
    pj << profile_report.to_jsonl();
  }
  std::printf("\nwrote jaal_telemetry_report.prom, "
              "jaal_telemetry_report.jsonl,\n      "
              "jaal_telemetry_report.trace.json (Perfetto-loadable), "
              "jaal_telemetry_report.det.trace.json\n      "
              "and jaal_telemetry_report.profile.jsonl\n");
  return 0;
}
