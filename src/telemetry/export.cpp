#include "telemetry/export.hpp"

#include "telemetry/json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>

namespace jaal::telemetry {
namespace {

/// Splits 'base{k="v"}' into base and inner label text ('k="v"', possibly
/// empty).
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  std::string labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') labels.pop_back();
  return {name.substr(0, brace), std::move(labels)};
}

/// Bucket bound label: exact decimal of the power-of-two bound, "+Inf" last.
std::string le_label(double ub) {
  if (std::isinf(ub)) return "+Inf";
  return fmt_double(ub);
}

void append_labels(std::string& out, const std::string& labels,
                   const std::string& extra) {
  if (labels.empty() && extra.empty()) return;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
}

std::vector<MetricsSnapshot::Entry> sorted_entries(
    const MetricsSnapshot& snapshot) {
  std::vector<MetricsSnapshot::Entry> entries = snapshot.entries;
  std::sort(entries.begin(), entries.end(),
            [](const MetricsSnapshot::Entry& a,
               const MetricsSnapshot::Entry& b) { return a.name < b.name; });
  return entries;
}

struct HelpEntry {
  std::string_view base;
  std::string_view help;
};

/// One line per metric family, sorted by base name for binary search.  Help
/// text must stay single-line and free of backslashes (the exposition format
/// would require escaping).
constexpr HelpEntry kMetricHelp[] = {
    {"jaal_baseline_reservoir_evictions_total",
     "Baseline windows evicted by reservoir sampling to hold the memory "
     "budget."},
    {"jaal_faults_crashed_monitor_epochs_total",
     "Monitor-epochs spent inside an injected crash window."},
    {"jaal_faults_degraded_epochs_total",
     "Epochs closed with report_fraction below 1."},
    {"jaal_faults_feedback_attempts_total",
     "Feedback retrieval attempts over the transport, retries included."},
    {"jaal_faults_feedback_failures_total",
     "Feedback retrieval attempts that failed on the transport."},
    {"jaal_faults_feedback_giveups_total",
     "Feedback retrievals abandoned after exhausting their retry budget."},
    {"jaal_faults_packets_lost_total",
     "Ingress packets lost to crashed monitors, never observed."},
    {"jaal_faults_summaries_delivered_total",
     "Monitor summaries delivered to the engine by the deadline."},
    {"jaal_faults_summaries_dropped_total",
     "Monitor summaries lost on the transport."},
    {"jaal_faults_summaries_late_total",
     "Monitor summaries that arrived after the aggregation deadline."},
    {"jaal_faults_summaries_reordered_total",
     "Monitor summaries delivered out of send order."},
    {"jaal_faults_summaries_rolled_forward_total",
     "Late summaries carried into the next epoch under kRollForward."},
    {"jaal_inference_alerts_suppressed_total",
     "Alerts dropped because verify_all_alerts found no raw-packet match."},
    {"jaal_inference_alerts_total",
     "Alerts raised, labeled by rule sid."},
    {"jaal_inference_alerts_via_feedback_total",
     "Alerts confirmed through the monitor feedback loop."},
    {"jaal_inference_feedback_fallbacks_total",
     "Feedback requests answered summary-only after transport failure."},
    {"jaal_inference_feedback_requests_total",
     "Raw-packet feedback requests issued to monitors."},
    {"jaal_inference_questions_evaluated_total",
     "Rule questions evaluated against aggregated summaries."},
    {"jaal_inference_questions_matched_total",
     "Rule questions whose strict or loose threshold matched."},
    {"jaal_inference_raw_bytes_fetched_total",
     "Raw packet bytes pulled from monitors by feedback."},
    {"jaal_inference_raw_packets_fetched_total",
     "Raw packets pulled from monitors by feedback."},
    {"jaal_monitor_batches_flushed_total",
     "Packet batches flushed into the summarizer."},
    {"jaal_monitor_packets_malformed_total",
     "Packets rejected by monitors as malformed."},
    {"jaal_monitor_packets_observed_total",
     "Packets observed across all monitors."},
    {"jaal_monitor_packets_oversized_total",
     "Packets truncated to the feature window by monitors."},
    {"jaal_monitor_silent_epochs_total",
     "Monitor epoch closes that stayed below n_min and shipped nothing."},
    {"jaal_monitor_summary_bytes_total",
     "Serialized summary bytes produced by monitors."},
    {"jaal_netsim_link_bytes_forwarded_total",
     "Bytes forwarded by a simulated link, labeled by link."},
    {"jaal_netsim_link_dropped_bytes_total",
     "Bytes dropped by a simulated link, labeled by link."},
    {"jaal_netsim_link_drops_total",
     "Messages dropped by a simulated link, labeled by link."},
    {"jaal_netsim_link_messages_forwarded_total",
     "Messages forwarded by a simulated link, labeled by link."},
    {"jaal_netsim_link_queue_depth_high_water_bytes",
     "High-water queued bytes on a simulated link, labeled by link."},
    {"jaal_observe_caution_permille",
     "Current caution signal (drifting-monitor fraction) in permille."},
    {"jaal_observe_drift_events_total",
     "Drift enter/exit transitions raised by the health tracker."},
    {"jaal_observe_flight_dropped_total",
     "Flight-recorder events overwritten before being dumped (ring "
     "wrap-around)."},
    {"jaal_observe_flight_dumps_total",
     "Flight-recorder dumps taken (crash, health regression, or on "
     "demand)."},
    {"jaal_observe_flight_events_total",
     "Structured events appended to the flight-recorder ring."},
    {"jaal_observe_monitors_drifting",
     "Monitors currently flagged as drifting by the health tracker."},
    {"jaal_observe_provenance_records_total",
     "Alert provenance records captured."},
    {"jaal_profile_critical_path_ms",
     "Wall-clock inclusive latency of the epoch root span (critical-path "
     "profiler)."},
    {"jaal_profile_epochs_total",
     "Epochs profiled by the critical-path profiler."},
    {"jaal_profile_stage_exclusive_ms",
     "Exclusive (self) wall-clock time per pipeline stage, labeled by "
     "stage."},
    {"jaal_profile_stragglers_total",
     "Sibling spans flagged as stragglers by max-vs-median skew."},
    {"jaal_runtime_parallel_for_calls_total",
     "parallel_for invocations on the thread pool."},
    {"jaal_runtime_queue_depth_high_water",
     "High-water mark of the thread-pool task queue."},
    {"jaal_runtime_tasks_completed_total",
     "Thread-pool tasks completed."},
    {"jaal_runtime_tasks_submitted_total",
     "Thread-pool tasks submitted."},
    {"jaal_slo_burn_rate_permille",
     "Rolling-window error-budget burn rate in permille of budget per "
     "epoch."},
    {"jaal_slo_epochs_observed_total",
     "Epochs folded into the SLO tracker."},
    {"jaal_slo_report_fraction_breaches_total",
     "Epochs whose report_fraction fell below the SLO target."},
    {"jaal_slo_report_fraction_budget_remaining_permille",
     "Remaining report_fraction error budget in permille."},
    {"jaal_slo_stage_ms_breaches_total",
     "Epochs whose per-stage wall-clock latency exceeded the SLO target."},
    {"jaal_slo_stage_ms_budget_remaining_permille",
     "Remaining latency error budget in permille (wall-clock derived)."},
    {"jaal_store_bytes_written_total",
     "Bytes appended to the deployment store."},
    {"jaal_store_msync_ms",
     "Wall-clock latency of store fdatasync calls (shard roll, finalize, "
     "explicit sync)."},
    {"jaal_store_records_total",
     "Records appended to the deployment store."},
    {"jaal_store_scan_bytes_total",
     "Record bytes visited by store reads (walks plus point queries)."},
    {"jaal_store_shards_rolled_total",
     "Store shard files finalized and rolled."},
    {"jaal_store_torn_bytes_truncated_total",
     "Torn tail bytes truncated during store recovery."},
    {"jaal_summarize_batches_total",
     "Packet batches summarized."},
    {"jaal_summarize_combined_format_total",
     "Summaries shipped in the combined (B = U_r Sigma_r) format."},
    {"jaal_summarize_kmeans_iterations",
     "Lloyd iterations per k-means run."},
    {"jaal_summarize_split_format_total",
     "Summaries shipped in the split (factors separate) format."},
    {"jaal_summarize_svd_sweeps",
     "Jacobi sweeps per SVD."},
};

}  // namespace

std::string metric_help(const std::string& base_name) {
  const auto* end = kMetricHelp + std::size(kMetricHelp);
  const auto* it = std::lower_bound(
      kMetricHelp, end, base_name,
      [](const HelpEntry& e, const std::string& n) { return e.base < n; });
  if (it != end && it->base == base_name) return std::string(it->help);
  // Unknown family: fall back to what the naming convention guarantees.
  if (base_name.size() > 6 &&
      base_name.rfind("_total") == base_name.size() - 6) {
    return "Monotonic event count.";
  }
  if (is_wall_clock_metric(base_name)) {
    return "Wall-clock measurement in milliseconds.";
  }
  return "Point-in-time value.";
}

bool is_wall_clock_metric(const std::string& name) noexcept {
  return name.find("_ms") != std::string::npos ||
         name.rfind("jaal_runtime_", 0) == 0 ||
         name.rfind("jaal_profile_", 0) == 0;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string with_label(const std::string& name, const std::string& key,
                       const std::string& value) {
  const std::string pair = key + "=\"" + escape_label_value(value) + "\"";
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    return name + "{" + pair + "}";
  }
  std::string out = name.substr(0, name.size() - 1);
  if (out.back() != '{') out += ',';
  return out + pair + "}";
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  const auto entries = sorted_entries(snapshot);
  std::string out;
  std::string last_base;
  char buf[64];
  for (const auto& e : entries) {
    auto [base, labels] = split_labels(e.name);
    const char* type = e.kind == MetricKind::kCounter    ? "counter"
                       : e.kind == MetricKind::kGauge    ? "gauge"
                                                         : "histogram";
    if (base != last_base) {
      out += "# HELP " + base + " " + metric_help(base) + "\n";
      out += "# TYPE " + base + " " + type + "\n";
      last_base = base;
    }
    switch (e.kind) {
      case MetricKind::kCounter:
        out += base;
        append_labels(out, labels, "");
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", e.counter);
        out += buf;
        break;
      case MetricKind::kGauge:
        out += base;
        append_labels(out, labels, "");
        std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", e.gauge);
        out += buf;
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < e.histogram.buckets.size(); ++b) {
          cumulative += e.histogram.buckets[b];
          out += base + "_bucket";
          append_labels(out, labels,
                        "le=\"" + le_label(Histogram::upper_bound(b)) + "\"");
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
          out += buf;
        }
        out += base + "_sum";
        append_labels(out, labels, "");
        out += ' ';
        out += fmt_double(e.histogram.sum);
        out += '\n';
        out += base + "_count";
        append_labels(out, labels, "");
        std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", e.histogram.count);
        out += buf;
        break;
      }
    }
  }
  return out;
}

std::string to_jsonl(const MetricsSnapshot& metrics,
                     const std::vector<SpanRecord>& spans,
                     const JsonlOptions& options) {
  std::string out;
  char buf[96];
  for (const auto& e : sorted_entries(metrics)) {
    if (!options.include_timings && is_wall_clock_metric(e.name)) continue;
    switch (e.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), "\",\"value\":%" PRIu64 "}\n",
                      e.counter);
        out += "{\"kind\":\"counter\",\"name\":\"" + json_escape(e.name) + buf;
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), "\",\"value\":%" PRId64 "}\n",
                      e.gauge);
        out += "{\"kind\":\"gauge\",\"name\":\"" + json_escape(e.name) + buf;
        break;
      case MetricKind::kHistogram: {
        out += "{\"kind\":\"histogram\",\"name\":\"" + json_escape(e.name) +
               "\",";
        std::snprintf(buf, sizeof(buf), "\"count\":%" PRIu64 ",",
                      e.histogram.count);
        out += buf;
        out += "\"sum\":" + fmt_double(e.histogram.sum) +
               ",\"max\":" + fmt_double(e.histogram.max) + ",\"buckets\":[";
        bool first = true;
        for (std::size_t b = 0; b < e.histogram.buckets.size(); ++b) {
          if (e.histogram.buckets[b] == 0) continue;
          if (!first) out += ',';
          first = false;
          out += "{\"le\":\"" + le_label(Histogram::upper_bound(b)) + "\",";
          std::snprintf(buf, sizeof(buf), "\"count\":%" PRIu64 "}",
                        e.histogram.buckets[b]);
          out += buf;
        }
        out += "]}\n";
        break;
      }
    }
  }

  std::vector<SpanRecord> ordered = spans;
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              if (a.name != b.name) return a.name < b.name;
              if (a.key != b.key) return a.key < b.key;
              return a.span_id < b.span_id;
            });
  for (const SpanRecord& s : ordered) {
    std::snprintf(buf, sizeof(buf),
                  "{\"kind\":\"span\",\"trace\":%" PRIu64
                  ",\"span\":\"%016" PRIx64 "\",\"parent\":\"%016" PRIx64
                  "\",",
                  s.trace_id, s.span_id, s.parent_id);
    out += buf;
    out += "\"name\":\"" + json_escape(s.name) + "\",";
    std::snprintf(buf, sizeof(buf), "\"key\":%" PRIu64 ",", s.key);
    out += buf;
    out += "\"sim_time\":" + fmt_double(s.sim_time);
    if (options.include_timings) {
      out += ",\"start_ms\":" + fmt_double(s.start_ms);
      out += ",\"duration_ms\":" + fmt_double(s.duration_ms);
    }
    if (!s.attrs.empty()) {
      out += ",\"attrs\":{";
      for (std::size_t i = 0; i < s.attrs.size(); ++i) {
        if (i != 0) out += ',';
        out += '"';
        out += json_escape(s.attrs[i].first);
        out += "\":";
        out += fmt_double(s.attrs[i].second);
      }
      out += '}';
    }
    out += "}\n";
  }
  return out;
}

}  // namespace jaal::telemetry
