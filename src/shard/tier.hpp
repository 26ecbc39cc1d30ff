// The inference tier — the deployment-facing detection API.
//
// Monitors ship their summaries to one inference engine, which concatenates
// them into one aggregate (§5.1) and runs question matching plus the
// feedback loop over it.  The tier is that engine plus the per-epoch flow
// the controller drives: begin_epoch, add_summary for every delivered
// summary (aggregated in arrival order and, with a store attached,
// persisted), aggregate_epoch, infer_epoch.
//
// Tier outage (faults::ShardCrashWindow): while the tier is down it refuses
// every summary — not aggregated, not persisted — so the epoch's report
// fraction drops and thresholds rescale.  Degradation, never a crash.
//
// Error policy (jaal.hpp): construction throws std::invalid_argument on an
// invalid AggregationPolicy or an inverted outage window; the per-epoch
// path (begin_epoch / add_summary / aggregate_epoch / infer_epoch) never
// throws on the summaries a deployment produces; a malformed summary
// (add_summary) or mixed field widths (aggregate_epoch) throw as
// inference::Aggregator::add does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/scenario.hpp"
#include "inference/aggregate.hpp"
#include "inference/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::shard {

/// Carries no settings: the tier is one engine.  It stays only because the
/// end-to-end benchmark (perfbench/) still constructs it, and goes with the
/// next change to that benchmark.
struct ShardingConfig {};

class InferenceTier final {
 public:
  /// `rules` + `engine` + `aggregation` configure the engine; `outages` are
  /// the scenario's tier outage windows.
  InferenceTier(const ShardingConfig& sharding, std::vector<rules::Rule> rules,
                const inference::EngineConfig& engine,
                const inference::AggregationPolicy& aggregation = {},
                std::vector<faults::ShardCrashWindow> outages = {});

  /// Opens an epoch: drops the previous epoch's summaries and aggregate
  /// (their buffers are reused, so steady-state epochs allocate no rows) and
  /// evaluates the outage windows.
  void begin_epoch(std::uint64_t epoch);

  /// Returns false when the tier is down this epoch (the summary is lost);
  /// true means it joins this epoch's aggregate and, when a store is
  /// attached, is persisted in arrival order.  The summary is serialized
  /// once (summarize::serialize, float32) into a recycled buffer: the
  /// aggregate is built from those bytes and the store appends them.
  bool add_summary(const summarize::MonitorSummary& summary);

  /// Summaries accepted this epoch and not yet aggregated.
  [[nodiscard]] std::size_t pending() const noexcept { return views_.size(); }

  /// Builds this epoch's aggregate: the accepted summaries concatenated in
  /// arrival order, reconstructed on the engine's pool
  /// (Aggregator::add(span<SummaryView>, pool), as store replay does).
  /// The reference stays valid until the next begin_epoch.
  [[nodiscard]] const inference::AggregatedSummary& aggregate_epoch();

  /// Runs the engine over this epoch's aggregate (building it first if
  /// aggregate_epoch has not run).
  [[nodiscard]] std::vector<inference::Alert> infer_epoch(
      const inference::RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {});

  /// Runs the engine over a pre-built aggregate, bypassing the epoch flow
  /// (retroactive replay, rule workbenches).  Identical to
  /// InferenceEngine::infer.
  [[nodiscard]] std::vector<inference::Alert> infer(
      const inference::AggregatedSummary& aggregate,
      const inference::RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {}) {
    return engine_.infer(aggregate, fetch, parent);
  }

  /// Always 1; stored in EpochMeta::shard_count.
  [[nodiscard]] std::size_t shard_count() const noexcept { return 1; }

  /// The engine: decision phase, stats, questions, rules.  The mutable
  /// overload exists for replay-style callers (store::StoreReplayer takes
  /// an engine).
  [[nodiscard]] const inference::InferenceEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] inference::InferenceEngine& engine() noexcept {
    return engine_;
  }

  void set_tau_c_scale(double scale) noexcept {
    engine_.set_tau_c_scale(scale);
  }
  void set_report_fraction(double fraction) noexcept {
    engine_.set_report_fraction(fraction);
  }
  void set_caution(double caution) noexcept { engine_.set_caution(caution); }

  /// The engine parallelizes its matching over `pool`; null is serial.
  void set_pool(std::shared_ptr<runtime::ThreadPool> pool) {
    engine_.set_pool(std::move(pool));
  }
  void set_telemetry(telemetry::Telemetry* tel) { engine_.set_telemetry(tel); }

  /// Attaches the persistence sink: add_summary persists every *accepted*
  /// summary under the current epoch.  Null detaches.  Must outlive the
  /// tier.
  void set_store(store::DeploymentStore* store) noexcept { store_ = store; }

 private:
  inference::InferenceEngine engine_;
  std::vector<faults::ShardCrashWindow> outages_;
  store::DeploymentStore* store_ = nullptr;
  /// One serialized summary per accepted summary, recycled across epochs;
  /// views_ alias the first views_.size() of them.
  std::vector<std::vector<std::uint8_t>> wire_;
  std::vector<summarize::SummaryView> views_;
  inference::Aggregator aggregator_;
  inference::AggregatedSummary aggregate_;
  std::uint64_t epoch_ = 0;
  bool down_ = false;
  bool aggregated_ = false;  ///< aggregate_epoch ran for the current epoch.
};

}  // namespace jaal::shard
