#include "observe/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace jaal::observe {
namespace {

using telemetry::fmt_double;
using telemetry::json_escape;

std::string fmt_fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace

std::vector<HealthReport::Finding> HealthReport::ranked_findings() const {
  std::vector<Finding> findings;

  // Drifting monitors: the most actionable signal — summaries no longer
  // represent the traffic behind them.
  for (const MonitorHealth& m : monitors) {
    if (m.drifting) {
      findings.push_back(
          {0.9, "monitor " + std::to_string(m.monitor) +
                    ": summary fidelity is currently drifting (min energy " +
                    fmt_fixed(m.min_energy, 4) + ", " +
                    std::to_string(m.drift_events) + " drift event(s))"});
    } else if (m.drift_events > 0) {
      findings.push_back(
          {0.5, "monitor " + std::to_string(m.monitor) + ": " +
                    std::to_string(m.drift_events) +
                    " past drift episode(s), currently recovered"});
    }
  }

  // Imprecise rules (labeled trials only).
  for (const RuleScore& r : scoreboard) {
    const double p = r.precision();
    if (r.true_positives + r.false_positives > 0 && p < 0.999) {
      findings.push_back(
          {0.4 + 0.4 * (1.0 - p),
           "rule sid " + std::to_string(r.sid) + " (" + r.msg +
               "): precision " + fmt_fixed(p, 3) + " over " +
               std::to_string(r.true_positives + r.false_positives) +
               " firings"});
    }
    if (r.labeled_trials > 0 && r.recall() < 0.999) {
      findings.push_back(
          {0.4 + 0.4 * (1.0 - r.recall()),
           "rule sid " + std::to_string(r.sid) + " (" + r.msg +
               "): recall " + fmt_fixed(r.recall(), 3) + " over " +
               std::to_string(r.labeled_trials) + " labeled trial(s)"});
    }
  }

  // Degraded-mode accounting.
  if (degradation.degraded_epochs > 0) {
    const double frac =
        static_cast<double>(degradation.degraded_epochs) /
        static_cast<double>(std::max<std::size_t>(degradation.epochs, 1));
    findings.push_back(
        {0.3 + 0.5 * frac,
         std::to_string(degradation.degraded_epochs) + "/" +
             std::to_string(degradation.epochs) +
             " epochs degraded (min report_fraction " +
             fmt_fixed(degradation.min_report_fraction, 3) + ", " +
             std::to_string(degradation.packets_lost) + " packets lost)"});
  }
  if (degradation.feedback_fallbacks > 0) {
    findings.push_back(
        {0.45, std::to_string(degradation.feedback_fallbacks) +
                   " feedback retrieval(s) fell back to summary-only "
                   "decisions (uncertain alerts unverified)"});
  }
  if (degradation.summaries_late > 0 || degradation.summaries_rolled_in > 0) {
    findings.push_back(
        {0.2, std::to_string(degradation.summaries_late) +
                  " late summar(ies), " +
                  std::to_string(degradation.summaries_rolled_in) +
                  " rolled into a later epoch"});
  }

  if (findings.empty()) {
    findings.push_back({0.0, "all monitors healthy: no drift, no degraded "
                             "epochs, no feedback fallbacks"});
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.severity != b.severity) {
                       return a.severity > b.severity;
                     }
                     return a.text < b.text;
                   });
  return findings;
}

std::string HealthReport::to_text() const {
  std::string out;
  out += "=== Jaal epoch health report ===\n";
  out += "epochs: " + std::to_string(degradation.epochs);
  out += "  alerts: " + std::to_string(degradation.alerts);
  out += "  caution: " + fmt_fixed(caution, 3);
  out += "  mean report_fraction: " +
         fmt_fixed(degradation.mean_report_fraction, 3) + "\n\n";

  out += "-- ranked diagnosis (worst first) --\n";
  std::size_t rank = 1;
  for (const Finding& f : ranked_findings()) {
    out += "  " + std::to_string(rank++) + ". [" +
           fmt_fixed(f.severity, 2) + "] " + f.text + "\n";
  }

  out += "\n-- per-monitor summary fidelity --\n";
  out += "  monitor  epochs  mean_energy  min_energy  mean_inertia  "
         "drift_events  state\n";
  for (const MonitorHealth& m : monitors) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %7u  %6zu  %11.4f  %10.4f  %12.4f  %12zu  %s\n",
                  m.monitor, m.epochs, m.mean_energy, m.min_energy,
                  m.mean_inertia, m.drift_events,
                  m.drifting ? "DRIFTING" : "ok");
    out += line;
  }

  if (!scoreboard.empty()) {
    out += "\n-- rule precision scoreboard (labeled trials) --\n";
    out += "      sid  tp  fp  trials  precision  recall  msg\n";
    for (const RuleScore& r : scoreboard) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %7u  %2llu  %2llu  %6llu  %9.3f  %6.3f  %s\n", r.sid,
                    static_cast<unsigned long long>(r.true_positives),
                    static_cast<unsigned long long>(r.false_positives),
                    static_cast<unsigned long long>(r.labeled_trials),
                    r.precision(), r.recall(), r.msg.c_str());
      out += line;
    }
  }

  out += "\n-- drift events (" + std::to_string(events.size()) + ") --\n";
  for (const HealthEvent& e : events) {
    out += "  epoch " + std::to_string(e.epoch) + " monitor " +
           std::to_string(e.monitor) + " " + e.metric +
           (e.kind == HealthEventKind::kDriftStart ? " DRIFT_START"
                                                   : " drift_end") +
           " z=" + fmt_fixed(e.z, 2) + " value=" + fmt_fixed(e.value, 4) +
           " baseline=" + fmt_fixed(e.baseline, 4) + "\n";
  }
  return out;
}

std::string HealthReport::to_jsonl() const {
  std::string out = "{\"kind\":\"health_summary\",\"epochs\":";
  out += std::to_string(degradation.epochs);
  out += ",\"degraded_epochs\":" + std::to_string(degradation.degraded_epochs);
  out += ",\"monitor_crash_epochs\":" +
         std::to_string(degradation.monitor_crash_epochs);
  out += ",\"summaries_dropped\":" +
         std::to_string(degradation.summaries_dropped);
  out += ",\"summaries_late\":" + std::to_string(degradation.summaries_late);
  out += ",\"summaries_rolled_in\":" +
         std::to_string(degradation.summaries_rolled_in);
  out += ",\"packets_lost\":" + std::to_string(degradation.packets_lost);
  out += ",\"feedback_fallbacks\":" +
         std::to_string(degradation.feedback_fallbacks);
  out += ",\"alerts\":" + std::to_string(degradation.alerts);
  out += ",\"min_report_fraction\":" +
         fmt_double(degradation.min_report_fraction);
  out += ",\"mean_report_fraction\":" +
         fmt_double(degradation.mean_report_fraction);
  out += ",\"caution\":" + fmt_double(caution);
  out += ",\"drift_events\":" + std::to_string(events.size());
  out += "}\n";

  for (const MonitorHealth& m : monitors) {
    out += "{\"kind\":\"monitor_health\",\"monitor\":";
    out += std::to_string(m.monitor);
    out += ",\"epochs\":" + std::to_string(m.epochs);
    out += ",\"mean_energy\":" + fmt_double(m.mean_energy);
    out += ",\"min_energy\":" + fmt_double(m.min_energy);
    out += ",\"mean_inertia\":" + fmt_double(m.mean_inertia);
    out += ",\"max_inertia\":" + fmt_double(m.max_inertia);
    out += ",\"mean_recon_error\":" + fmt_double(m.mean_recon_error);
    out += ",\"drift_events\":" + std::to_string(m.drift_events);
    out += ",\"drifting\":";
    out += m.drifting ? "true" : "false";
    out += "}\n";
  }

  for (const RuleScore& r : scoreboard) {
    out += "{\"kind\":\"rule_score\",\"sid\":" + std::to_string(r.sid);
    out += ",\"msg\":\"" + json_escape(r.msg) + "\"";
    out += ",\"tp\":" + std::to_string(r.true_positives);
    out += ",\"fp\":" + std::to_string(r.false_positives);
    out += ",\"labeled_trials\":" + std::to_string(r.labeled_trials);
    out += ",\"precision\":" + fmt_double(r.precision());
    out += ",\"recall\":" + fmt_double(r.recall());
    out += "}\n";
  }

  for (const HealthEvent& e : events) {
    out += to_json(e);
    out += '\n';
  }
  return out;
}

HealthTracker::HealthTracker(const ObserveConfig& cfg,
                             std::size_t monitor_count)
    : cfg_(cfg) {
  cfg_.drift_config.validate();
  if (monitor_count == 0) {
    throw std::invalid_argument("HealthTracker: monitor_count must be > 0");
  }
  monitors_.reserve(monitor_count);
  for (std::size_t i = 0; i < monitor_count; ++i) {
    monitors_.push_back(PerMonitor{DriftDetector(cfg_.drift_config),
                                   DriftDetector(cfg_.drift_config),
                                   DriftDetector(cfg_.drift_config)});
  }
}

void HealthTracker::check_metric(DriftDetector& detector,
                                 const FidelityStats& stats,
                                 const char* metric, double value,
                                 PerMonitor& pm) {
  const double baseline = detector.mean();
  const double z = detector.observe(value);
  if (detector.transitioned()) {
    const HealthEventKind kind = detector.drifting()
                                     ? HealthEventKind::kDriftStart
                                     : HealthEventKind::kDriftEnd;
    if (kind == HealthEventKind::kDriftStart) {
      ++pm.drift_events;
      ++drift_events_total_;
    }
    epoch_events_.push_back(
        {stats.epoch, stats.monitor, metric, kind, value, baseline, z});
  }
}

void HealthTracker::observe_fidelity(const FidelityStats& stats) {
  if (stats.monitor >= monitors_.size()) {
    return;  // Unknown monitor id; never happens from the controller.
  }
  PerMonitor& pm = monitors_[stats.monitor];
  ++pm.epochs;
  pm.energy_sum += stats.svd_energy_retained;
  pm.min_energy = std::min(pm.min_energy, stats.svd_energy_retained);
  pm.inertia_sum += stats.kmeans_inertia;
  pm.max_inertia = std::max(pm.max_inertia, stats.kmeans_inertia);
  pm.recon_sum += stats.reconstruction_error;
  if (!cfg_.drift) return;
  check_metric(pm.energy, stats, "svd_energy", stats.svd_energy_retained, pm);
  check_metric(pm.inertia, stats, "kmeans_inertia", stats.kmeans_inertia, pm);
  check_metric(pm.recon, stats, "recon_error", stats.reconstruction_error,
               pm);
}

std::vector<HealthEvent> HealthTracker::end_epoch(
    std::uint64_t /*epoch*/, const EpochDegradation& degradation) {
  ++degradation_.epochs;
  if (degradation.report_fraction < 1.0) ++degradation_.degraded_epochs;
  if (degradation.monitors_crashed > 0) ++degradation_.monitor_crash_epochs;
  degradation_.summaries_dropped += degradation.summaries_dropped;
  degradation_.summaries_late += degradation.summaries_late;
  degradation_.summaries_rolled_in += degradation.summaries_rolled_in;
  degradation_.packets_lost += degradation.packets_lost;
  degradation_.feedback_fallbacks += degradation.feedback_fallbacks;
  degradation_.alerts += degradation.alerts;
  degradation_.min_report_fraction =
      std::min(degradation_.min_report_fraction, degradation.report_fraction);
  report_fraction_sum_ += degradation.report_fraction;
  degradation_.mean_report_fraction =
      report_fraction_sum_ / static_cast<double>(degradation_.epochs);

  std::vector<HealthEvent> events = std::move(epoch_events_);
  epoch_events_.clear();
  all_events_.insert(all_events_.end(), events.begin(), events.end());
  return events;
}

double HealthTracker::caution() const noexcept {
  if (!cfg_.drift || monitors_.empty()) return 0.0;
  return static_cast<double>(monitors_drifting()) /
         static_cast<double>(monitors_.size());
}

std::size_t HealthTracker::monitors_drifting() const noexcept {
  std::size_t n = 0;
  for (const PerMonitor& pm : monitors_) {
    if (pm.drifting()) ++n;
  }
  return n;
}

HealthReport HealthTracker::report() const {
  HealthReport r;
  r.monitors.reserve(monitors_.size());
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    const PerMonitor& pm = monitors_[i];
    MonitorHealth mh;
    mh.monitor = static_cast<std::uint32_t>(i);
    mh.epochs = pm.epochs;
    if (pm.epochs > 0) {
      const double n = static_cast<double>(pm.epochs);
      mh.mean_energy = pm.energy_sum / n;
      mh.min_energy = pm.min_energy;
      mh.mean_inertia = pm.inertia_sum / n;
      mh.max_inertia = pm.max_inertia;
      mh.mean_recon_error = pm.recon_sum / n;
    }
    mh.drift_events = pm.drift_events;
    mh.drifting = pm.drifting();
    r.monitors.push_back(mh);
  }
  r.events = all_events_;
  r.degradation = degradation_;
  r.caution = caution();
  return r;
}

}  // namespace jaal::observe
