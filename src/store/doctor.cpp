#include "store/doctor.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "telemetry/json.hpp"
#include "telemetry/profile.hpp"

namespace jaal::store {
namespace {

using telemetry::fmt_double;

/// Folds one stored delta into the running cumulative snapshot (counters
/// and histogram counts/buckets/sums add; gauges are last-writer-wins; max
/// is a lifetime high-water, so it only ratchets up).
void accumulate(std::map<std::string, telemetry::MetricsSnapshot::Entry>& acc,
                const telemetry::MetricsSnapshot& delta) {
  for (const auto& e : delta.entries) {
    auto [it, inserted] = acc.try_emplace(e.name, e);
    if (inserted) continue;
    auto& cur = it->second;
    if (cur.kind != e.kind) {  // foreign mix-up; keep the newer shape
      cur = e;
      continue;
    }
    switch (e.kind) {
      case telemetry::MetricKind::kCounter:
        cur.counter += e.counter;
        break;
      case telemetry::MetricKind::kGauge:
        cur.gauge = e.gauge;
        break;
      case telemetry::MetricKind::kHistogram: {
        cur.histogram.count += e.histogram.count;
        cur.histogram.sum += e.histogram.sum;
        cur.histogram.max = std::max(cur.histogram.max, e.histogram.max);
        if (cur.histogram.buckets.size() < e.histogram.buckets.size()) {
          cur.histogram.buckets.resize(e.histogram.buckets.size(), 0);
        }
        for (std::size_t i = 0; i < e.histogram.buckets.size(); ++i) {
          cur.histogram.buckets[i] += e.histogram.buckets[i];
        }
        break;
      }
    }
  }
}

}  // namespace

StoreDiagnosis diagnose_store(const DeploymentStore& store,
                              const StoreDiagnosisConfig& cfg) {
  StoreDiagnosis out;

  store.each_epoch_meta([&](const EpochMeta& m) {
    out.metas.push_back(m);
    if (m.shard_count > out.shard_count) out.shard_count = m.shard_count;
    return true;
  });
  out.epochs = out.metas.size();
  store.each_alert_line(
      [&](std::uint64_t, std::uint32_t, std::string_view) {
        ++out.alerts;
        return true;
      });
  store.each_provenance_line(
      [&](std::uint64_t, std::uint32_t, std::string_view) {
        ++out.provenance_records;
        return true;
      });

  // Gather the stored event batches (ascending by epoch; one batch per
  // epoch the live controller closed with the recorder on).
  std::vector<std::pair<std::uint64_t, std::vector<observe::FlightEvent>>>
      batches;
  store.each_flight_events(
      [&](std::uint64_t epoch, const std::vector<observe::FlightEvent>& evs) {
        out.flight_events += evs.size();
        batches.emplace_back(epoch, evs);
        return true;
      });

  // Monitor count: explicit override, else the kEpochClose events carry it,
  // else the summary stream ids bound it.
  std::size_t monitors = cfg.monitor_count;
  if (monitors == 0) {
    for (const auto& [epoch, evs] : batches) {
      for (const auto& ev : evs) {
        if (ev.kind == observe::FlightEventKind::kEpochClose && ev.c > 0) {
          monitors = std::max(monitors, static_cast<std::size_t>(ev.c));
        }
        if (ev.kind == observe::FlightEventKind::kFidelity) {
          monitors = std::max(monitors, static_cast<std::size_t>(ev.actor) + 1);
        }
      }
    }
  }
  if (monitors == 0) {
    store.each_summary([&](std::uint64_t, std::uint32_t monitor,
                           const summarize::MonitorSummary&) {
      monitors = std::max(monitors, static_cast<std::size_t>(monitor) + 1);
      return true;
    });
  }
  if (monitors == 0) monitors = 1;
  out.monitor_count = monitors;

  // Replay: feed a fresh tracker exactly what the live one saw, in the
  // stored (= live) order, and cross-check the drift transitions it
  // re-derives against the stored ones.
  observe::HealthTracker tracker(cfg.observe, monitors);
  std::map<std::uint64_t, const std::vector<observe::FlightEvent>*> by_epoch;
  for (const auto& [epoch, evs] : batches) by_epoch[epoch] = &evs;

  std::uint64_t epochs_closed = 0;
  std::string timeline;
  for (const auto& meta : out.metas) {
    const auto it = by_epoch.find(meta.epoch);
    const observe::FlightEvent* close = nullptr;
    const observe::FlightEvent* profile = nullptr;
    std::vector<const observe::FlightEvent*> stored_drift;
    if (it != by_epoch.end()) {
      for (const auto& ev : *it->second) {
        switch (ev.kind) {
          case observe::FlightEventKind::kFidelity:
            tracker.observe_fidelity(observe::fidelity_from_event(ev));
            break;
          case observe::FlightEventKind::kDriftStart:
          case observe::FlightEventKind::kDriftEnd:
            stored_drift.push_back(&ev);
            break;
          case observe::FlightEventKind::kEpochClose:
            close = &ev;
            break;
          case observe::FlightEventKind::kProfile:
            profile = &ev;
            break;
          default:
            break;  // kShip/kFeedback/kSpan: timeline color, not state
        }
      }
    }
    std::vector<observe::HealthEvent> derived;
    observe::HealthTracker::EpochDegradation deg;
    if (close != nullptr) {
      deg = observe::degradation_from_event(*close);
      derived = tracker.end_epoch(meta.epoch, deg);
      ++epochs_closed;
      bool match = derived.size() == stored_drift.size();
      for (std::size_t i = 0; match && i < derived.size(); ++i) {
        match = observe::drift_matches(*stored_drift[i], derived[i]);
      }
      if (!match) ++out.drift_mismatches;
    }

    timeline += "{\"kind\":\"epoch\",\"epoch\":" + std::to_string(meta.epoch) +
                ",\"end_time\":" + fmt_double(meta.end_time) +
                ",\"packets\":" + std::to_string(meta.packets) +
                ",\"report_fraction\":" + fmt_double(meta.report_fraction) +
                ",\"caution\":" + fmt_double(meta.caution);
    if (close != nullptr) {
      timeline += ",\"alerts\":" + std::to_string(deg.alerts) +
                  ",\"monitors_crashed\":" +
                  std::to_string(deg.monitors_crashed) +
                  ",\"summaries_dropped\":" +
                  std::to_string(deg.summaries_dropped) +
                  ",\"summaries_late\":" + std::to_string(deg.summaries_late) +
                  ",\"summaries_rolled_in\":" +
                  std::to_string(deg.summaries_rolled_in) +
                  ",\"packets_lost\":" + std::to_string(deg.packets_lost) +
                  ",\"feedback_fallbacks\":" +
                  std::to_string(deg.feedback_fallbacks) +
                  ",\"drift_events\":" + std::to_string(derived.size());
    }
    if (profile != nullptr) {
      // Critical-path digest (live runs with profiling on): the stage that
      // dominated the deterministic span tree, plus the tree's shape.  All
      // fields come from the deterministic-mode profile, so the timeline
      // stays byte-identical across runs, thread counts and shard counts.
      timeline += ",\"dominant_stage\":\"";
      timeline += telemetry::profile_stage_name(
          static_cast<std::uint8_t>(profile->actor));
      timeline += "\",\"path_depth\":" +
                  std::to_string(static_cast<std::uint64_t>(profile->b)) +
                  ",\"spans\":" + std::to_string(profile->u[0]);
    }
    timeline += "}\n";
  }
  out.health_complete = out.epochs > 0 && epochs_closed == out.epochs;
  out.health = tracker.report();

  if (cfg.observe.slo) {
    observe::SloTracker slo(cfg.observe.slo_config);
    for (const auto& meta : out.metas) {
      // No latency sample offline: wall clock is deliberately not persisted.
      slo.observe_epoch(meta.epoch, meta.report_fraction, -1.0);
    }
    out.slo_jsonl = slo.to_jsonl();
  }

  std::map<std::string, telemetry::MetricsSnapshot::Entry> acc;
  store.each_metrics_delta(
      [&](std::uint64_t, const telemetry::MetricsSnapshot& delta) {
        ++out.metrics_records;
        accumulate(acc, delta);
        return true;
      });
  out.cumulative_metrics.entries.reserve(acc.size());
  for (auto& [name, entry] : acc) {
    out.cumulative_metrics.entries.push_back(std::move(entry));
  }

  out.timeline_jsonl = std::move(timeline);
  out.timeline_jsonl += out.health.to_jsonl();
  out.timeline_jsonl += out.slo_jsonl;
  return out;
}

}  // namespace jaal::store
