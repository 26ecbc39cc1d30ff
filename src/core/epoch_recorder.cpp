#include "core/epoch_recorder.hpp"

#include "core/controller.hpp"
#include "runtime/runtime_stats.hpp"
#include "store/store.hpp"
#include "telemetry/profile.hpp"

namespace jaal::core {

EpochRecorder::EpochRecorder(const JaalConfig& cfg,
                             runtime::RuntimeStats* pool_stats)
    : tel_(cfg.telemetry),
      monitor_count_(cfg.monitor_count),
      profiling_(cfg.telemetry != nullptr && cfg.observe.profile),
      store_ops_(!cfg.store_dir.empty() && cfg.store_metrics) {
  if (cfg.observe.flight_recorder) {
    flight_ =
        std::make_unique<observe::FlightRecorder>(cfg.observe.flight_capacity);
  }
  if (cfg.observe.slo) {
    slo_ = std::make_unique<observe::SloTracker>(cfg.observe.slo_config);
  }
  if (tel_ == nullptr) return;
  // One stats system: the pool's runtime counters land in the same registry
  // (and the same exports) as every other jaal metric.
  if (pool_stats != nullptr) pool_stats->bind(&tel_->metrics);
  auto& m = tel_->metrics;
  degraded_epochs_ = &m.counter("jaal_faults_degraded_epochs_total");
  rolled_forward_ = &m.counter("jaal_faults_summaries_rolled_forward_total");
  packets_lost_ = &m.counter("jaal_faults_packets_lost_total");
  drift_events_ = &m.counter("jaal_observe_drift_events_total");
  monitors_drifting_ = &m.gauge("jaal_observe_monitors_drifting");
  caution_permille_ = &m.gauge("jaal_observe_caution_permille");
  if (cfg.observe.flight_recorder || cfg.store_metrics) {
    flight_events_ = &m.counter("jaal_observe_flight_events_total");
    flight_dropped_ = &m.counter("jaal_observe_flight_dropped_total");
    flight_dumps_ = &m.counter("jaal_observe_flight_dumps_total");
  }
  if (cfg.observe.slo) {
    slo_epochs_ = &m.counter("jaal_slo_epochs_observed_total");
    slo_rf_breaches_ = &m.counter("jaal_slo_report_fraction_breaches_total");
    slo_lat_breaches_ = &m.counter("jaal_slo_stage_ms_breaches_total");
    slo_burn_ = &m.gauge("jaal_slo_burn_rate_permille");
    slo_rf_budget_ =
        &m.gauge("jaal_slo_report_fraction_budget_remaining_permille");
    slo_lat_budget_ = &m.gauge("jaal_slo_stage_ms_budget_remaining_permille");
  }
  if (cfg.observe.profile) {
    profile_path_ms_ = &m.histogram("jaal_profile_critical_path_ms");
    profile_epochs_ = &m.counter("jaal_profile_epochs_total");
    profile_stragglers_ = &m.counter("jaal_profile_stragglers_total");
  }
}

void EpochRecorder::begin_epoch(std::uint64_t epoch, double now,
                                std::uint64_t packets,
                                store::DeploymentStore* store) {
  // Wall clock only feeds the latency SLI (never any persisted or
  // deterministic output); skip the clock read entirely when SLO is off.
  if (slo_) wall_start_ = std::chrono::steady_clock::now();
  epoch_ = epoch;
  now_ = now;
  events_.clear();
  if (tel_ != nullptr) {
    // One trace per epoch: the root span's trace id is the epoch index,
    // and the simulated end time rides along so traces line up across runs
    // even though wall-clock durations differ.
    epoch_span_ = tel_->tracer.span("epoch", {}, epoch);
    epoch_span_.set_sim_time(now);
    epoch_span_.attr("packets", static_cast<double>(packets));
    root_ctx_ = epoch_span_.context();
  }
  if (store != nullptr) {
    // The commit emits store_append/store_commit/index_finalize spans under
    // this epoch's trace when profiling; the default context keeps the
    // store span-free.
    store->set_trace_context(profiling_ ? root_ctx_ : telemetry::SpanContext{});
  }
  // The observe phase happened during ingest(); it reports as a
  // zero-duration stage carrying the epoch's packet count.
  begin("observe");
  attr("packets", static_cast<double>(packets));
  end();
}

telemetry::SpanContext EpochRecorder::begin(const char* name) {
  stage_name_ = name;
  if (tel_ != nullptr) stage_ = tel_->tracer.span(name, root_ctx_);
  return stage_.context();
}

void EpochRecorder::end() {
  stage_.finish();
  if (events_on()) {
    emit({.kind = observe::FlightEventKind::kSpan,
          .actor = telemetry::profile_stage_id(stage_name_),
          .a = now_});
  }
}

void EpochRecorder::shipped(const EpochResult& result,
                            std::uint64_t summary_bytes) {
  // The ship leg: summary bytes crossing the monitor->controller links.
  // Since the fault transport it can fail — dropped/late arrivals are
  // recorded on the span next to what got through.
  begin("ship");
  attr("summary_bytes", static_cast<double>(summary_bytes));
  attr("monitors_reporting", static_cast<double>(result.monitors_reporting));
  if (result.summaries_dropped > 0 || result.summaries_late > 0 ||
      result.monitors_crashed > 0 || result.summaries_lost_shard > 0) {
    attr("dropped", static_cast<double>(result.summaries_dropped));
    attr("late", static_cast<double>(result.summaries_late));
    attr("crashed", static_cast<double>(result.monitors_crashed));
    if (result.summaries_lost_shard > 0) {
      attr("shard_lost", static_cast<double>(result.summaries_lost_shard));
    }
    attr("report_fraction", result.report_fraction);
  }
  end();
}

void EpochRecorder::postprocessed(const EpochResult& result) {
  // The postprocess leg: distributed/feedback classification tallies.
  begin("postprocess");
  if (tel_ != nullptr) {
    std::size_t distributed = 0, via_feedback = 0;
    for (const inference::Alert& a : result.alerts) {
      distributed += a.distributed ? 1 : 0;
      via_feedback += a.via_feedback ? 1 : 0;
    }
    attr("alerts", static_cast<double>(result.alerts.size()));
    attr("distributed", static_cast<double>(distributed));
    attr("via_feedback", static_cast<double>(via_feedback));
  }
  end();
}

void EpochRecorder::emit(observe::FlightEvent ev) {
  ev.epoch = epoch_;
  ev.seq = seq_++;
  if (flight_) flight_->record(ev);
  if (store_ops_) events_.push_back(ev);
  if (flight_events_ != nullptr) flight_events_->add(1);
}

void EpochRecorder::close_epoch(EpochResult& result,
                                observe::HealthTracker& health,
                                std::uint64_t feedback_fallbacks) {
  if (profiling_) {
    // Deterministic digest first, before anything is persisted: drain the
    // spans recorded so far and rebuild the tree.  The epoch root is still
    // open (it must cover the store commit), so synthesize its record —
    // deterministic mode only needs the tree shape, never durations.
    spans_ = tel_->tracer.drain();
    telemetry::SpanRecord root;
    root.name = "epoch";
    root.key = epoch_;
    root.trace_id = epoch_;
    root.span_id = root_ctx_.span_id;
    root.sim_time = now_;
    spans_.push_back(std::move(root));
    if (events_on()) {
      const telemetry::CriticalPath det = telemetry::CriticalPath::build(
          spans_, epoch_, {.mode = telemetry::DurationMode::kDeterministic});
      emit({.kind = observe::FlightEventKind::kProfile,
            .actor = telemetry::profile_stage_id(det.dominant_stage),
            .a = det.root_inclusive_ms,
            .b = static_cast<double>(det.path.size()),
            .u = {det.span_count, det.sibling_groups}});
    }
  }
  const observe::HealthTracker::EpochDegradation deg{
      .report_fraction = result.report_fraction,
      .monitors_crashed = result.monitors_crashed,
      .summaries_dropped = result.summaries_dropped,
      .summaries_late = result.summaries_late,
      .summaries_rolled_in = result.summaries_rolled_in,
      .packets_lost = result.packets_lost,
      .feedback_fallbacks = feedback_fallbacks,
      .alerts = result.alerts.size()};
  result.drift_events = health.end_epoch(epoch_, deg);
  if (tel_ != nullptr) {
    if (result.degraded()) degraded_epochs_->add(1);
    if (result.summaries_rolled_in > 0) {
      rolled_forward_->add(result.summaries_rolled_in);
    }
    if (!result.drift_events.empty()) {
      drift_events_->add(result.drift_events.size());
    }
    monitors_drifting_->set(
        static_cast<std::int64_t>(health.monitors_drifting()));
    caution_permille_->set(
        static_cast<std::int64_t>(result.caution * 1000.0 + 0.5));
  }
  if (events_on()) {
    // Drift transitions, then the feedback and close events — the order the
    // offline replay (store/doctor) relies on: fidelity before close.
    for (const observe::HealthEvent& e : result.drift_events) {
      emit(observe::drift_event(e));
    }
    if (feedback_fallbacks > 0) {
      emit({.kind = observe::FlightEventKind::kFeedback,
            .u = {feedback_fallbacks}});
    }
    emit(observe::epoch_close_event(deg, result.caution, monitor_count_));
  }
  if (slo_) {
    const double latency_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() -
                                  wall_start_)
                                  .count();
    const std::uint64_t rf_before = slo_->rf_breaches();
    const std::uint64_t lat_before = slo_->latency_breaches();
    slo_->observe_epoch(epoch_, result.report_fraction, latency_ms);
    if (slo_epochs_ != nullptr) {
      slo_epochs_->add(1);
      slo_rf_breaches_->add(slo_->rf_breaches() - rf_before);
      slo_lat_breaches_->add(slo_->latency_breaches() - lat_before);
      slo_burn_->set(slo_->rf_burn_rate_permille());
      slo_rf_budget_->set(slo_->rf_budget_remaining_permille());
      slo_lat_budget_->set(slo_->latency_budget_remaining_permille());
    }
  }
  if (flight_) {
    // Regression trigger: the health report's worst finding got worse than
    // anything seen before — capture the ring before later epochs
    // overwrite the lead-up.
    const auto findings = health.report().ranked_findings();
    const double severity = findings.empty() ? 0.0 : findings.front().severity;
    if (severity > last_top_severity_) {
      last_top_severity_ = severity;
      last_flight_dump_ = flight_->dump_jsonl();
      if (flight_dumps_ != nullptr) flight_dumps_->add(1);
    }
    if (flight_dropped_ != nullptr) {
      flight_dropped_->add(flight_->dropped() - flight_dropped_prev_);
      flight_dropped_prev_ = flight_->dropped();
    }
  }
}

void EpochRecorder::persist_ops(store::DeploymentStore& store) {
  if (!store_ops_) return;
  // Both ride under this epoch's EpochMeta: an uncommitted epoch rolls
  // them back.
  if (!events_.empty()) store.put_events(epoch_, events_);
  if (tel_ != nullptr) {
    telemetry::MetricsSnapshot cur = tel_->metrics.snapshot();
    store.put_metrics(epoch_, cur.diff(prev_metrics_));
    prev_metrics_ = std::move(cur);
  }
}

void EpochRecorder::end_epoch(EpochResult& result) {
  epoch_span_.finish();
  if (!profiling_) return;
  // The wall-clock profile over the complete epoch — including the store
  // spans the commit just recorded.
  spans_.pop_back();  // synthesized root; the finished one follows
  std::vector<telemetry::SpanRecord> rest = tel_->tracer.drain();
  spans_.insert(spans_.end(), rest.begin(), rest.end());
  telemetry::CriticalPath wall = telemetry::CriticalPath::build(spans_, epoch_);
  profile_epochs_->add(1);
  profile_path_ms_->observe(wall.root_inclusive_ms);
  if (!wall.stragglers.empty()) {
    profile_stragglers_->add(wall.stragglers.size());
  }
  for (const telemetry::StageTime& st : wall.stages) {
    telemetry::Histogram* h = nullptr;
    for (auto& [name, handle] : profile_stage_) {
      if (name == st.name) {
        h = handle;
        break;
      }
    }
    if (h == nullptr) {
      h = &tel_->metrics.histogram("jaal_profile_stage_exclusive_ms{stage=\"" +
                                   st.name + "\"}");
      profile_stage_.emplace_back(st.name, h);
    }
    h->observe(st.exclusive_ms);
  }
  if (slo_) slo_->attribute_latency(wall.dominant_stage);
  result.profile = std::move(wall);
}

}  // namespace jaal::core
