#include "core/controller.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <utility>

namespace jaal::core {
namespace {

/// The deployment-level ObserveConfig::provenance toggle gates the engine's
/// own record_provenance knob (both default on; either turns capture off).
inference::EngineConfig merged_engine_config(const JaalConfig& cfg) {
  inference::EngineConfig e = cfg.engine;
  e.record_provenance = e.record_provenance && cfg.observe.provenance;
  return e;
}

std::shared_ptr<runtime::ThreadPool> make_pool(const JaalConfig& cfg) {
  const std::size_t threads =
      cfg.threads == 0 ? runtime::threads_from_env(1) : cfg.threads;
  if (threads <= 1) return nullptr;
  return std::make_shared<runtime::ThreadPool>(threads);
}

}  // namespace

JaalController::JaalController(const JaalConfig& cfg,
                               std::vector<rules::Rule> rules)
    : cfg_(cfg),
      pool_(make_pool(cfg)),
      transport_(cfg.faults, cfg.monitor_count),
      tier_(cfg.sharding, std::move(rules), merged_engine_config(cfg),
            cfg.aggregation, cfg.faults.shard_crashes),
      health_(cfg.observe, std::max<std::size_t>(cfg.monitor_count, 1)),
      rec_(cfg, pool_ ? &pool_->stats() : nullptr) {
  if (cfg_.monitor_count == 0) {
    throw std::invalid_argument("JaalController: need at least one monitor");
  }
  tier_.set_pool(pool_);
  tier_.set_telemetry(cfg_.telemetry);
  transport_.set_telemetry(cfg_.telemetry);
  if (!cfg_.store_dir.empty()) {
    // Open (and recover) the persistence layer before any epoch runs: torn
    // shard tails and uncommitted epochs are truncated here, and the epoch
    // counter resumes after the last durable epoch so a relaunched
    // deployment continues the same epoch sequence.
    store_ = std::make_unique<store::DeploymentStore>(
        store::StoreConfig{cfg_.store_dir, cfg_.store_epochs_per_shard},
        /*writable=*/true, cfg_.telemetry);
    if (const auto last = store_->last_committed_epoch()) {
      epoch_index_ = *last + 1;
    }
    // Summary persistence rides the tier's accept path: a summary refused
    // by a down tier is lost, not stored — the log records exactly what was
    // aggregated.
    tier_.set_store(store_.get());
  }
  monitors_.reserve(cfg_.monitor_count);
  for (std::size_t i = 0; i < cfg_.monitor_count; ++i) {
    summarize::SummarizerConfig scfg = cfg_.summarizer;
    scfg.seed = cfg_.summarizer.seed + i;  // decorrelate k-means seeding
    // Fidelity stats only matter to the drift monitors; skip the extra
    // energy pass when drift monitoring is off.
    scfg.record_fidelity = scfg.record_fidelity && cfg_.observe.drift;
    monitors_.emplace_back(static_cast<summarize::MonitorId>(i), scfg);
    monitors_.back().set_pool(pool_);
    monitors_.back().set_telemetry(cfg_.telemetry);
  }
}

std::optional<runtime::RuntimeStatsSnapshot> JaalController::runtime_stats()
    const {
  if (!pool_) return std::nullopt;
  return pool_->stats().snapshot(pool_->threads());
}

void JaalController::ingest(const packet::PacketRecord& pkt) {
  const std::size_t m =
      packet::FlowKeyHash{}(pkt.flow()) % monitors_.size();
  if (!transport_.monitor_up(m, epoch_index_)) {
    // The vantage point is dark: packets routed to a crashed monitor are
    // lost, not rerouted (a second monitor never sees these flows, §6).
    ++epoch_lost_packets_;
    rec_.packet_lost();
    return;
  }
  monitors_[m].observe(pkt);
  ++epoch_packets_;
}

EpochResult JaalController::close_epoch(double now) {
  EpochResult result;
  result.end_time = now;
  result.packets = std::exchange(epoch_packets_, 0);
  result.packets_lost = std::exchange(epoch_lost_packets_, 0);
  const std::uint64_t epoch = epoch_index_++;
  rec_.begin_epoch(epoch, now, result.packets, store_.get());
  // Per-epoch feedback-fallback delta for the health ledger (engine stats
  // are monotonic across epochs).
  const std::uint64_t fallbacks_before =
      tier_.engine().stats().feedback_fallbacks;

  // Crash windows: a monitor that is down this epoch loses its buffered
  // packets (a process restart) and ships nothing.
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (!transport_.monitor_up(i, epoch)) {
      monitors_[i].discard_epoch();
      ++result.monitors_crashed;
    } else {
      // Pin this epoch's summarization RNG stream to (seed, epoch): the
      // summary then depends only on the epoch's batch, not on how many
      // epochs ran before — the restart-determinism contract of the store.
      monitors_[i].begin_epoch(epoch);
    }
  }
  transport_.note_crashed(result.monitors_crashed);

  const double deadline =
      now + (cfg_.aggregation.deadline_s > 0.0 ? cfg_.aggregation.deadline_s
                                               : cfg_.epoch_seconds);
  transport_.begin_epoch(epoch, now, deadline);
  tier_.begin_epoch(epoch);

  const telemetry::SpanContext summarize_ctx = rec_.begin("summarize");
  std::vector<std::optional<summarize::MonitorSummary>> slots =
      flush_monitors(epoch, summarize_ctx);

  // Drift monitoring: feed each flushed monitor's summary fidelity to the
  // health ledger, serially in monitor order (determinism), *before*
  // inference so this epoch's caution signal reflects this epoch's
  // summaries.
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (!slots[i]) continue;
    if (const auto& f = monitors_[i].last_fidelity()) {
      observe::FidelityStats fs = *f;
      fs.epoch = epoch;
      health_.observe_fidelity(fs);
      result.fidelity.push_back(fs);
      rec_.fidelity(fs);
    }
  }

  // Ship + aggregate phase, serial in monitor order: the transport decides
  // each summary's fate (its draws depend only on seed/epoch/monitor, so
  // the outcome is identical across runs and thread counts).  The tier
  // aggregates (and persists) each accepted summary; a refusal means the
  // tier is down this epoch.  Late summaries rolled forward from earlier
  // epochs aggregate first.
  for (summarize::MonitorSummary& s : carry_) {
    if (tier_.add_summary(s)) {
      ++result.summaries_rolled_in;
    } else {
      ++result.summaries_lost_shard;
    }
  }
  carry_.clear();

  std::uint64_t ship_bytes = 0;
  std::size_t produced = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]) continue;
    ++produced;
    const std::size_t bytes = summarize::wire_bytes(*slots[i]);
    switch (transport_.ship(i, bytes).status) {
      case faults::ShipStatus::kDelivered:
        ship_bytes += bytes;  // it crossed the link either way
        if (tier_.add_summary(*slots[i])) {
          ++result.monitors_reporting;
        } else {
          // Delivered, but the inference tier is down: the summary dies at
          // the tier's door, degrading report_fraction like any other loss.
          ++result.summaries_lost_shard;
          rec_.ship(i, observe::ShipFate::kShardDown);
        }
        break;
      case faults::ShipStatus::kDropped:
        ++result.summaries_dropped;
        rec_.ship(i, observe::ShipFate::kDropped);
        break;
      case faults::ShipStatus::kLate:
        ++result.summaries_late;
        if (cfg_.aggregation.late_policy == faults::LatePolicy::kRollForward) {
          ship_bytes += bytes;  // it did cross the link, just slowly
          carry_.push_back(std::move(*slots[i]));
          rec_.ship(i, observe::ShipFate::kRolledForward);
        } else {
          rec_.ship(i, observe::ShipFate::kLate);
        }
        break;
    }
  }

  // Degraded-mode accounting: what fraction of the summaries this epoch
  // *should* have aggregated actually made it in time.  Crashed monitors
  // count against the epoch (they would plausibly have reported).
  const std::size_t expected = produced + result.monitors_crashed;
  result.report_fraction =
      expected == 0
          ? 1.0
          : static_cast<double>(result.monitors_reporting) /
                static_cast<double>(expected);
  rec_.attr("monitors_reporting",
            static_cast<double>(result.monitors_reporting));
  rec_.end();
  rec_.shipped(result, ship_bytes);

  // The caution signal the engine surfaces on this epoch's alerts.
  result.caution = health_.caution();
  tier_.set_caution(result.caution);
  if (tier_.pending() > 0) infer(result);
  close_out(result, epoch, fallbacks_before);
  return result;
}

std::vector<std::optional<summarize::MonitorSummary>>
JaalController::flush_monitors(std::uint64_t epoch,
                               const telemetry::SpanContext& ctx) {
  // Flush every live monitor into its slot, in parallel when a pool is
  // attached (summarization of N monitors is embarrassingly parallel —
  // each Monitor owns its buffer and its seeded RNG, and each task writes
  // only its own slot).  The caller reduces the slot table in monitor
  // order, so everything downstream is bit-identical to the serial loop.
  std::vector<std::optional<summarize::MonitorSummary>> slots(
      monitors_.size());
  std::vector<std::future<void>> flushes;
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (!transport_.monitor_up(i, epoch)) continue;
    if (!pool_) {
      slots[i] = monitors_[i].flush_epoch(ctx);
      continue;
    }
    flushes.push_back(pool_->submit(
        [this, i, &ctx, &slots] { slots[i] = monitors_[i].flush_epoch(ctx); }));
  }
  // Every task finishes before `slots` can go; then the first failure (in
  // monitor order) propagates.
  for (std::future<void>& f : flushes) f.wait();
  for (std::future<void>& f : flushes) f.get();
  return slots;
}

void JaalController::infer(EpochResult& result) {
  rec_.begin("aggregate");
  const inference::AggregatedSummary& aggregated = tier_.aggregate_epoch();
  rec_.attr("rows", static_cast<double>(aggregated.origin.size()));
  rec_.end();

  const inference::RawPacketFetcher fetch =
      [this](summarize::MonitorId id,
             const std::vector<std::size_t>& centroids) -> inference::RawFetch {
    faults::FetchResult fetched = transport_.fetch(
        id, [&](std::size_t) { return monitors_.at(id).raw_packets_for(centroids); });
    // Carry the retry accounting along so alert provenance can show what
    // the feedback round-trip actually cost.
    return {std::move(fetched.packets), fetched.attempts, fetched.backoff_s};
  };
  // Scale rule counts to this epoch's actual packet volume (counts are
  // calibrated for a nominal 2000-packet window), on top of the deployment's
  // configured headroom factor; partial epochs additionally scale by the
  // report fraction so a missing monitor raises sensitivity instead of
  // silently missing.
  tier_.set_tau_c_scale(cfg_.engine.tau_c_scale *
                        static_cast<double>(result.packets) / 2000.0);
  tier_.set_report_fraction(result.report_fraction);
  const telemetry::SpanContext infer_ctx = rec_.begin("infer");
  result.alerts = tier_.infer_epoch(fetch, infer_ctx);
  rec_.attr("alerts", static_cast<double>(result.alerts.size()));
  rec_.end();
  rec_.postprocessed(result);
}

void JaalController::close_out(EpochResult& result, std::uint64_t epoch,
                               std::uint64_t fallbacks_before) {
  const std::uint64_t fallbacks =
      tier_.engine().stats().feedback_fallbacks - fallbacks_before;
  rec_.close_epoch(result, health_, fallbacks);
  // Store commit: the alerts land first (their provenance stays on the
  // in-memory alerts; the store keeps decisions, not explanations), then
  // the recorder's ops batch, then the EpochMeta record marks the epoch
  // durable — a crash between any of these appends leaves an uncommitted
  // epoch that recovery truncates wholesale on the next open.
  if (store_) {
    for (const inference::Alert& a : result.alerts) {
      store_->put_alert(epoch, a, result.end_time);
    }
    rec_.persist_ops(*store_);
    store::EpochMeta meta{epoch, result.end_time, result.packets,
                          result.report_fraction, result.caution};
    store_->commit_epoch(meta);
  }
  rec_.end_epoch(result);
}

std::vector<EpochResult> JaalController::run(trace::PacketSource& source,
                                             double duration) {
  std::vector<EpochResult> epochs;
  const double start = source.peek_time();

  if (cfg_.trigger == EpochTrigger::kBatchTriggered) {
    // §5.1 second mode: when any monitor reaches a full batch of n packets,
    // the controller requests summaries from everyone (monitors below
    // n_min stay silent and keep buffering).
    while (source.peek_time() - start < duration) {
      const packet::PacketRecord pkt = source.next();
      ingest(pkt);
      for (const Monitor& m : monitors_) {
        if (m.batch_ready()) {
          epochs.push_back(close_epoch(pkt.timestamp));
          break;
        }
      }
    }
    epochs.push_back(close_epoch(start + duration));
    return epochs;
  }

  double epoch_end = start + cfg_.epoch_seconds;
  while (source.peek_time() - start < duration) {
    if (source.peek_time() >= epoch_end) {
      epochs.push_back(close_epoch(epoch_end));
      epoch_end += cfg_.epoch_seconds;
      continue;
    }
    ingest(source.next());
  }
  epochs.push_back(close_epoch(epoch_end));
  return epochs;
}

CommStats JaalController::comm() const {
  CommStats total;
  for (const Monitor& m : monitors_) total += m.comm();
  total.feedback_bytes += tier_.engine().stats().raw_bytes_fetched;
  return total;
}

}  // namespace jaal::core
