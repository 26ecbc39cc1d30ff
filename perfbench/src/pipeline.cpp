#include "pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <random>
#include <utility>

#include "linalg/simd.hpp"
#include "linalg/svd.hpp"
#include "summarize/normalize.hpp"
#include "util.hpp"

namespace perfbench {

using jaal::observe::FlightEvent;
using jaal::observe::FlightEventKind;
using jaal::summarize::MonitorSummary;
using jaal::telemetry::SpanContext;

namespace {

/// As in the controller: the deployment-level provenance toggle gates the
/// engine's own knob.
jaal::inference::EngineConfig merged_engine_config(
    const jaal::core::JaalConfig& cfg) {
  jaal::inference::EngineConfig e = cfg.engine;
  e.record_provenance = e.record_provenance && cfg.observe.provenance;
  return e;
}

FlightEvent stage_event(std::uint32_t stage, double now) {
  FlightEvent ev;
  ev.kind = FlightEventKind::kSpan;
  ev.actor = stage;
  ev.a = now;
  return ev;
}

FlightEvent ship_event(std::size_t monitor, std::uint64_t outcome) {
  FlightEvent ev;
  ev.kind = FlightEventKind::kShip;
  ev.actor = static_cast<std::uint32_t>(monitor);
  ev.u[0] = outcome;
  return ev;
}

}  // namespace

ComposedPipeline::ComposedPipeline(const jaal::core::JaalConfig& cfg,
                                   std::vector<jaal::rules::Rule> rules,
                                   jaal::telemetry::Tracer* tracer)
    : cfg_(cfg),
      tracer_(tracer),
      transport_(cfg.faults, cfg.monitor_count),
      tier_(cfg.sharding, std::move(rules), merged_engine_config(cfg),
            cfg.aggregation, cfg.faults.shard_crashes),
      health_(cfg.observe, std::max<std::size_t>(cfg.monitor_count, 1)),
      pending_(cfg.monitor_count),
      last_batch_(cfg.monitor_count) {
  const std::size_t threads = cfg_.threads == 0
                                  ? jaal::runtime::threads_from_env(1)
                                  : cfg_.threads;
  if (threads > 1) {
    pool_ = std::make_shared<jaal::runtime::ThreadPool>(threads);
    tier_.set_pool(pool_);
  }
  if (cfg_.observe.flight_recorder) {
    flight_ = std::make_unique<jaal::observe::FlightRecorder>(
        cfg_.observe.flight_capacity);
  }
  if (cfg_.observe.slo) {
    slo_ = std::make_unique<jaal::observe::SloTracker>(
        cfg_.observe.slo_config);
  }
  if (cfg_.telemetry != nullptr) {
    tier_.set_telemetry(cfg_.telemetry);
    transport_.set_telemetry(cfg_.telemetry);
    if (pool_) pool_->stats().bind(&cfg_.telemetry->metrics);
  }
  if (!cfg_.store_dir.empty()) {
    const Stopwatch open;
    store_ = std::make_unique<jaal::store::DeploymentStore>(
        jaal::store::StoreConfig{cfg_.store_dir, cfg_.store_epochs_per_shard},
        /*writable=*/true, cfg_.telemetry);
    store_open_ms_ = open.ms();
    if (const auto last = store_->last_committed_epoch()) epoch_ = *last + 1;
  }
  monitors_.reserve(cfg_.monitor_count);
  for (std::size_t i = 0; i < cfg_.monitor_count; ++i) {
    jaal::summarize::SummarizerConfig scfg = cfg_.summarizer;
    scfg.seed = cfg_.summarizer.seed + i;
    scfg.record_fidelity = scfg.record_fidelity && cfg_.observe.drift;
    monitors_.emplace_back(static_cast<jaal::summarize::MonitorId>(i), scfg);
    if (pool_) monitors_.back().set_pool(pool_);
    if (cfg_.telemetry != nullptr) monitors_.back().set_telemetry(cfg_.telemetry);
  }
}

jaal::telemetry::Span ComposedPipeline::span(const char* name,
                                             const SpanContext& parent,
                                             std::uint64_t key) const {
  return tracer_ != nullptr ? tracer_->span(name, parent, key)
                            : jaal::telemetry::Span{};
}

void ComposedPipeline::event(std::uint64_t epoch, FlightEvent ev) {
  const bool persist = store_ != nullptr && cfg_.store_metrics;
  if (flight_ == nullptr && !persist) return;
  ev.epoch = epoch;
  ev.seq = flight_seq_++;
  if (flight_) flight_->record(ev);
  if (persist) epoch_events_.push_back(ev);
}

void ComposedPipeline::flush_all(
    std::uint64_t epoch, const SpanContext& parent,
    std::vector<std::optional<MonitorSummary>>& slots, EpochStats& stats) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (transport_.monitor_up(i, epoch)) live.push_back(i);
  }
  const auto flush_one = [&](std::size_t i) {
    jaal::telemetry::Span s = span("flush", parent, i);
    slots[i] = monitors_[i].flush_epoch();
  };
  if (!pool_) {
    for (std::size_t i : live) flush_one(i);
  } else {
    using Clock = std::chrono::steady_clock;
    std::vector<double> wait(live.size(), 0.0);
    std::vector<std::future<void>> done;
    done.reserve(live.size());
    for (std::size_t k = 0; k < live.size(); ++k) {
      const Clock::time_point submitted = Clock::now();
      done.push_back(pool_->submit([&, k, submitted] {
        wait[k] = std::chrono::duration<double, std::milli>(Clock::now() -
                                                             submitted)
                      .count();
        flush_one(live[k]);
      }));
    }
    // Every task must finish before the locals it references unwind.
    for (auto& f : done) f.wait();
    for (auto& f : done) f.get();
    stats.wait_ms = std::move(wait);
  }
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    last_batch_[i].clear();
    if (!transport_.monitor_up(i, epoch)) continue;
    if (slots[i]) {
      last_batch_[i].swap(pending_[i]);
    } else {
      ++stats.silent;  // below n_min: the monitor keeps buffering
    }
  }
}

EpochStats ComposedPipeline::run_epoch(const EpochTraffic& traffic) {
  EpochStats st;
  const std::uint64_t epoch = epoch_;
  const std::size_t monitor_count = monitors_.size();
  const auto route = [&](const jaal::packet::PacketRecord& pkt) {
    return jaal::packet::FlowKeyHash{}(pkt.flow()) % monitor_count;
  };
  // The probes' copy of every monitor's batch, made before the root span.
  for (const auto& pkt : traffic.packets) {
    const std::size_t m = route(pkt);
    if (transport_.monitor_up(m, epoch)) pending_[m].push_back(pkt);
  }

  jaal::telemetry::Span root = span("epoch", {}, epoch);
  root.set_sim_time(traffic.end_time);
  const SpanContext ctx = root.context();
  {
    jaal::telemetry::Span s = span("ingest", ctx);
    for (const auto& pkt : traffic.packets) {
      const std::size_t m = route(pkt);
      if (!transport_.monitor_up(m, epoch)) {
        ++epoch_lost_;  // a dark vantage point loses its flows
        continue;
      }
      monitors_[m].observe(pkt);
      ++st.packets;
    }
  }

  const Stopwatch close_wall;
  const double now = traffic.end_time;
  const std::uint64_t fallbacks_before =
      tier_.engine().stats().feedback_fallbacks;
  const std::uint64_t packets_lost = epoch_lost_;
  epoch_lost_ = 0;
  ++epoch_;
  epoch_events_.clear();
  event(epoch, stage_event(0, now));

  std::size_t crashed = 0;
  {
    jaal::telemetry::Span s = span("begin_epoch", ctx);
    for (std::size_t i = 0; i < monitor_count; ++i) {
      if (!transport_.monitor_up(i, epoch)) {
        monitors_[i].discard_epoch();
        pending_[i].clear();
        ++crashed;
      } else {
        monitors_[i].begin_epoch(epoch);
      }
    }
    transport_.note_crashed(crashed);
    const double deadline =
        now + (cfg_.aggregation.deadline_s > 0.0 ? cfg_.aggregation.deadline_s
                                                 : cfg_.epoch_seconds);
    transport_.begin_epoch(epoch, now, deadline);
    tier_.begin_epoch(epoch);
    last_aggregate_ = nullptr;
  }

  std::vector<std::optional<MonitorSummary>> slots(monitor_count);
  {
    jaal::telemetry::Span s = span("summarize", ctx);
    flush_all(epoch, s.context(), slots, st);
  }

  {
    jaal::telemetry::Span s = span("fidelity", ctx);
    for (std::size_t i = 0; i < monitor_count; ++i) {
      if (!slots[i]) continue;
      if (const auto& f = monitors_[i].last_fidelity()) {
        jaal::observe::FidelityStats fs = *f;
        fs.epoch = epoch;
        health_.observe_fidelity(fs);
        FlightEvent ev;
        ev.kind = FlightEventKind::kFidelity;
        ev.actor = fs.monitor;
        ev.a = fs.svd_energy_retained;
        ev.b = fs.kmeans_inertia;
        ev.c = fs.reconstruction_error;
        ev.u[0] = fs.batch_packets;
        event(epoch, ev);
      }
    }
  }

  // Ship: rolled-forward summaries aggregate first, then monitors in order.
  // Accepted summaries are persisted in this order in the store phase.
  std::vector<MonitorSummary> rolled = std::move(carry_);
  carry_.clear();
  std::vector<const MonitorSummary*> accepted;
  std::size_t reporting = 0;
  std::size_t produced = 0;
  {
    jaal::telemetry::Span s = span("ship", ctx);
    for (const MonitorSummary& c : rolled) {
      if (tier_.add_summary(c)) {
        ++st.rolled_in;
        accepted.push_back(&c);
      }
    }
    for (std::size_t i = 0; i < monitor_count; ++i) {
      if (!slots[i]) continue;
      ++produced;
      const std::size_t bytes = jaal::summarize::wire_bytes(*slots[i]);
      st.wire_bytes += static_cast<double>(bytes);
      ++st.summaries;
      const Stopwatch ship;
      const jaal::faults::ShipOutcome outcome = transport_.ship(i, bytes);
      st.ship_us += ship.ms() * 1000.0;
      ++st.ships;
      switch (outcome.status) {
        case jaal::faults::ShipStatus::kDelivered:
          if (tier_.add_summary(*slots[i])) {
            ++reporting;
            accepted.push_back(&*slots[i]);
          } else {
            event(epoch, ship_event(i, 4));  // owning shard down
          }
          break;
        case jaal::faults::ShipStatus::kDropped:
          ++st.dropped;
          event(epoch, ship_event(i, 1));
          break;
        case jaal::faults::ShipStatus::kLate: {
          ++st.late;
          const bool roll = cfg_.aggregation.late_policy ==
                            jaal::faults::LatePolicy::kRollForward;
          if (roll) carry_.push_back(std::move(*slots[i]));
          event(epoch, ship_event(i, roll ? 3 : 2));
          break;
        }
      }
    }
  }
  const std::size_t expected = produced + crashed;
  const double report_fraction =
      expected == 0 ? 1.0
                    : static_cast<double>(reporting) /
                          static_cast<double>(expected);
  event(epoch, stage_event(1, now));
  event(epoch, stage_event(2, now));
  const double caution = health_.caution();
  tier_.set_caution(caution);

  if (tier_.pending() > 0) {
    {
      jaal::telemetry::Span s = span("aggregate", ctx);
      const jaal::inference::AggregatedSummary& aggregate =
          tier_.aggregate_epoch();
      st.rows = aggregate.rows();
      last_aggregate_ = &aggregate;
    }
    event(epoch, stage_event(3, now));
    tier_.set_tau_c_scale(cfg_.engine.tau_c_scale *
                          static_cast<double>(st.packets) / 2000.0);
    tier_.set_report_fraction(report_fraction);
    jaal::telemetry::Span s = span("infer", ctx);
    const SpanContext infer_ctx = s.context();
    const jaal::inference::RawPacketFetcher fetch =
        [&](jaal::summarize::MonitorId id,
            const std::vector<std::size_t>& centroids)
        -> jaal::inference::RawFetch {
      // Keyed by call order: one monitor can be asked by several rules.
      jaal::telemetry::Span f = span("feedback", infer_ctx, st.feedback_calls);
      f.attr("monitor", id);
      jaal::faults::FetchResult fetched =
          transport_.fetch(id, [&](std::size_t) {
            return monitors_.at(id).raw_packets_for(centroids);
          });
      ++st.feedback_calls;
      st.feedback_attempts += fetched.attempts;
      if (fetched.packets) {
        st.feedback_packets += fetched.packets->size();
      } else {
        ++st.feedback_giveups;
      }
      return {std::move(fetched.packets), fetched.attempts,
              fetched.backoff_s};
    };
    st.alerts = tier_.infer_epoch(fetch);
    for (const auto& a : st.alerts) st.via_feedback += a.via_feedback ? 1 : 0;
    event(epoch, stage_event(4, now));
    event(epoch, stage_event(5, now));
  }

  const bool persist_ops = store_ != nullptr && cfg_.store_metrics;
  std::optional<jaal::telemetry::MetricsSnapshot> metrics_delta;
  {
    jaal::telemetry::Span s = span("observe", ctx);
    jaal::observe::HealthTracker::EpochDegradation deg;
    deg.report_fraction = report_fraction;
    deg.monitors_crashed = crashed;
    deg.summaries_dropped = st.dropped;
    deg.summaries_late = st.late;
    deg.summaries_rolled_in = st.rolled_in;
    deg.packets_lost = packets_lost;
    deg.feedback_fallbacks =
        tier_.engine().stats().feedback_fallbacks - fallbacks_before;
    deg.alerts = st.alerts.size();
    const auto drift = health_.end_epoch(epoch, deg);
    st.drift_events = drift.size();
    for (const jaal::observe::HealthEvent& e : drift) {
      FlightEvent ev;
      ev.kind = e.kind == jaal::observe::HealthEventKind::kDriftStart
                    ? FlightEventKind::kDriftStart
                    : FlightEventKind::kDriftEnd;
      ev.actor = e.monitor;
      ev.a = e.value;
      ev.b = e.baseline;
      ev.c = e.z;
      ev.u[0] = jaal::observe::drift_metric_id(e.metric);
      event(epoch, ev);
    }
    if (deg.feedback_fallbacks > 0) {
      FlightEvent ev;
      ev.kind = FlightEventKind::kFeedback;
      ev.u[0] = deg.feedback_fallbacks;
      event(epoch, ev);
    }
    {
      FlightEvent ev;
      ev.kind = FlightEventKind::kEpochClose;
      ev.actor = static_cast<std::uint32_t>(deg.alerts);
      ev.a = report_fraction;
      ev.b = caution;
      ev.c = static_cast<double>(cfg_.monitor_count);
      ev.u[0] = deg.monitors_crashed;
      ev.u[1] = deg.summaries_dropped;
      ev.u[2] = deg.summaries_late;
      ev.u[3] = deg.summaries_rolled_in;
      ev.u[4] = deg.packets_lost;
      ev.u[5] = deg.feedback_fallbacks;
      event(epoch, ev);
    }
    std::string dominant_stage;
    if (cfg_.telemetry != nullptr && cfg_.observe.profile) {
      // The controller's per-epoch profile: both critical-path modes over
      // the layers' own spans.
      const std::vector<jaal::telemetry::SpanRecord> spans =
          cfg_.telemetry->tracer.drain();
      jaal::telemetry::CriticalPathOptions det;
      det.mode = jaal::telemetry::DurationMode::kDeterministic;
      const auto digest = jaal::telemetry::CriticalPath::build(spans, epoch, det);
      FlightEvent ev;
      ev.kind = FlightEventKind::kProfile;
      ev.actor = jaal::telemetry::profile_stage_id(digest.dominant_stage);
      ev.a = digest.root_inclusive_ms;
      ev.b = static_cast<double>(digest.path.size());
      ev.u[0] = digest.span_count;
      ev.u[1] = digest.sibling_groups;
      event(epoch, ev);
      dominant_stage =
          jaal::telemetry::CriticalPath::build(spans, epoch).dominant_stage;
    }
    if (slo_) {
      slo_->observe_epoch(epoch, report_fraction, close_wall.ms());
      if (!dominant_stage.empty()) slo_->attribute_latency(dominant_stage);
    }
    if (flight_) {
      const auto findings = health_.report().ranked_findings();
      const double severity =
          findings.empty() ? 0.0 : findings.front().severity;
      if (severity > last_top_severity_) {
        last_top_severity_ = severity;
        (void)flight_->dump_jsonl();
      }
    }
    if (persist_ops && cfg_.telemetry != nullptr) {
      jaal::telemetry::MetricsSnapshot cur = cfg_.telemetry->metrics.snapshot();
      metrics_delta = cur.diff(prev_metrics_);
      prev_metrics_ = std::move(cur);
    }
  }

  if (store_) {
    {
      jaal::telemetry::Span s = span("store_append", ctx);
      for (const MonitorSummary* summary : accepted) {
        store_->put_summary(epoch, *summary);
      }
      st.store_records += accepted.size();
      for (const auto& a : st.alerts) {
        store_->put_alert(epoch, a, now);
        ++st.store_records;
        if (a.provenance) {
          store_->put_provenance(epoch, a.sid, *a.provenance);
          ++st.store_records;
        }
      }
      if (persist_ops && !epoch_events_.empty()) {
        store_->put_events(epoch, epoch_events_);
        ++st.store_records;
      }
      if (metrics_delta) {
        store_->put_metrics(epoch, *metrics_delta);
        ++st.store_records;
      }
    }
    jaal::telemetry::Span s = span("store_commit", ctx);
    jaal::store::EpochMeta meta{epoch, now, st.packets, report_fraction,
                                caution};
    meta.shard_count = tier_.shard_count();
    store_->commit_epoch(meta);
    ++st.store_records;
  }
  return st;
}

void ComposedPipeline::probe(std::size_t batches, bool simd_probe,
                             ProbeStats& out) {
  namespace simd = jaal::linalg::simd;
  const jaal::summarize::SummarizerConfig& scfg = cfg_.summarizer;
  const std::size_t p = jaal::packet::kFieldCount;
  const std::size_t k = scfg.centroids;
  // The summarizer's S1/S2 rule decides which matrix k-means clusters.
  const bool split =
      scfg.format == jaal::summarize::SummaryFormat::kSplit ||
      (scfg.format == jaal::summarize::SummaryFormat::kAuto &&
       scfg.rank * (k + p + 1) + k < k * (p + 1));
  const std::size_t n_monitors = monitors_.size();
  std::size_t probed = 0;
  std::size_t simd_monitor = n_monitors;
  for (std::size_t step = 0; step < n_monitors && probed < batches; ++step) {
    const std::size_t i = (probe_cursor_ + step) % n_monitors;
    const auto& batch = last_batch_[i];
    if (batch.empty()) continue;
    if (simd_monitor == n_monitors) simd_monitor = i;
    ++probed;
    const Stopwatch tn;
    const jaal::linalg::Matrix x = jaal::summarize::to_normalized_matrix(batch);
    out.normalize_ms += tn.ms();
    const Stopwatch ts;
    const jaal::linalg::SvdResult svd =
        jaal::linalg::truncated_svd(x, std::min(scfg.rank, batch.size()));
    out.svd_ms += ts.ms();
    out.svd_sweeps += svd.sweeps;
    const jaal::linalg::Matrix points = split ? svd.u : svd.reconstruct();
    jaal::summarize::KMeansOptions opts = scfg.kmeans;
    opts.pool = nullptr;
    const std::uint64_t seed = splitmix64(scfg.seed + i) ^ epoch_;
    std::mt19937_64 rng(seed);
    const Stopwatch tk;
    const auto km = jaal::summarize::kmeans(points, k, rng, opts);
    out.kmeans_ms += tk.ms();
    out.kmeans_iterations += static_cast<double>(km.iterations);
    out.kmeans_capped += km.iterations >= opts.max_iterations ? 1 : 0;
    // max_iterations = 0 times seeding plus the final assignment pass, and
    // max_iterations = 1 adds one Lloyd iteration; their difference is taken
    // off so the figure is seeding alone.
    double capped_ms[2] = {0.0, 0.0};
    for (std::size_t iters = 0; iters < 2; ++iters) {
      opts.max_iterations = iters;
      rng.seed(seed);
      const Stopwatch tz;
      (void)jaal::summarize::kmeans(points, k, rng, opts);
      capped_ms[iters] = tz.ms();
    }
    out.kmeans_seed_ms += capped_ms[0] - (capped_ms[1] - capped_ms[0]);
    ++out.batches;
  }
  probe_cursor_ = (probe_cursor_ + std::max<std::size_t>(batches, 1)) %
                  std::max<std::size_t>(n_monitors, 1);

  if (last_aggregate_ != nullptr) {
    const Stopwatch tm;
    (void)tier_.engine().match(*last_aggregate_);
    out.match_ms += tm.ms();
    ++out.matches;
  }

  if (simd_probe && simd_monitor < n_monitors) {
    // The same batch through a fresh monitor under each kernel level; the
    // level is process-wide, so nothing else may run meanwhile.
    const simd::Level before = simd::active();
    double ms[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      simd::force_level(pass == 0 ? simd::Level::kScalar : simd::detected());
      jaal::summarize::SummarizerConfig c = scfg;
      c.seed = scfg.seed + simd_monitor;
      c.record_fidelity = c.record_fidelity && cfg_.observe.drift;
      jaal::core::Monitor mon(
          static_cast<jaal::summarize::MonitorId>(simd_monitor), c);
      for (const auto& pkt : last_batch_[simd_monitor]) mon.observe(pkt);
      mon.begin_epoch(epoch_ - 1);
      const Stopwatch tf;
      (void)mon.flush_epoch();
      ms[pass] = tf.ms();
    }
    simd::force_level(before);
    out.flush_scalar_ms += ms[0];
    out.flush_simd_ms += ms[1];
    ++out.simd_batches;
  }
}

}  // namespace perfbench
