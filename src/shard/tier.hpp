// The sharded inference tier — the deployment-facing detection API.
//
// One InferenceEngine is the scalability ceiling for "millions of users":
// per-question matching cost grows linearly with aggregate rows, i.e. with
// monitor count.  The tier partitions monitors across N engine shards by
// consistent hashing over the monitor id (shard/hash_ring), buffers each
// shard's summaries as they arrive, aggregates hierarchically — a per-shard
// aggregate first, then a cross-shard merge — and runs the shards
// concurrently on the runtime/ channel pool.  The controller (and any other
// deployment code) talks only to this tier; a single-engine deployment is
// the shards == 1 degenerate case, bit-for-bit.
//
// Determinism argument: every accepted summary gets an arrival sequence
// number, and the cross-shard merge interleaves shard row blocks back into
// sequence order — reproducing, byte-for-byte, the one tall aggregate the
// single engine would have built.  Algorithm 1's matched rows are per-row
// facts (a full scan; each row's distance depends only on that row's bytes
// and the question) and its matched count is an exact integer sum, so
// per-shard partial matches merge into exactly the global SimilarityResult:
// map shard-local rows to global rows, merge ascending, sum the counts,
// re-derive the alert flag against the root engine's scaled_tau_c.  The
// serial decision/feedback/postprocess phase then runs once, at the root,
// over that merged state — alerts, provenance, and store contents are
// byte-identical to the single-engine path at any shard count and any
// thread count.
//
// Shard loss (faults::ShardCrashWindow): a down shard refuses the summaries
// it owns — they are not aggregated and not persisted, the epoch's report
// fraction drops, thresholds rescale, and inference proceeds over the
// surviving shards.  Degradation, never a crash.
//
// Error policy (jaal.hpp): construction throws std::invalid_argument on an
// invalid ShardingConfig / AggregationPolicy / shard fault window; the
// per-epoch path (begin_epoch / add_summary / aggregate_epoch / infer_epoch)
// never throws.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/scenario.hpp"
#include "inference/engine.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/hash_ring.hpp"
#include "store/store.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::shard {

/// Per-shard accounting for one epoch (EpochResult::shards).
struct ShardEpochStats {
  std::size_t shard = 0;
  std::size_t summaries = 0;  ///< Accepted into this epoch's aggregate.
  std::size_t rows = 0;       ///< Centroid rows those summaries contributed.
  std::uint64_t packets = 0;  ///< Packets represented by those rows.
  /// Summaries refused because the shard was down (ShardCrashWindow).
  std::size_t summaries_lost = 0;
  bool down = false;  ///< In a crash window this epoch.
};

class InferenceTier final {
 public:
  /// `rules` + `engine` configure the root engine (and, at shards > 1, the
  /// per-shard matching engines); `aggregation` is the shared
  /// AggregationPolicy; `shard_faults` the scenario's shard outage windows
  /// (windows naming a shard >= sharding.shards throw).
  InferenceTier(const ShardingConfig& sharding, std::vector<rules::Rule> rules,
                const inference::EngineConfig& engine,
                const inference::AggregationPolicy& aggregation = {},
                std::vector<faults::ShardCrashWindow> shard_faults = {});

  // ---- per-epoch flow (the controller's order) ---------------------------

  /// Opens an epoch: resets buffers and per-shard stats, evaluates crash
  /// windows.  Summaries added before the first begin_epoch land in epoch 0.
  void begin_epoch(std::uint64_t epoch);

  /// Routes one summary to its owning shard.  Returns false when that shard
  /// is down this epoch (the summary is lost and counted); true means it is
  /// buffered for aggregation — and, when a store is attached, persisted in
  /// arrival order (the single-engine aggregation order, so replay and
  /// cross-shard-count store bytes line up).
  bool add_summary(const summarize::MonitorSummary& summary);

  /// Summaries buffered for the current epoch across all shards.
  [[nodiscard]] std::size_t pending() const noexcept;

  /// Builds this epoch's aggregate hierarchy: per-shard aggregates (in
  /// parallel when a pool is attached), then the cross-shard result,
  /// sequence-interleaved so it is byte-identical to the single-engine
  /// Aggregator.  The returned reference is valid until the next begin_epoch.
  /// At shards > 1 with telemetry attached, per-shard 'shard_aggregate'
  /// spans (key = shard) and a 'cross_shard_merge' span are recorded under
  /// `parent` (the controller's aggregate span).
  [[nodiscard]] const inference::AggregatedSummary& aggregate_epoch(
      const telemetry::SpanContext& parent = {});

  /// Runs inference over the aggregate built by aggregate_epoch: per-shard
  /// matching fans out over the pool, partial matches merge exactly, and
  /// the root engine's serial decision/feedback phase runs once.  At
  /// shards > 1 with telemetry attached, per-shard 'shard_match' spans and
  /// a 'cross_shard_merge' span are recorded under `parent`.
  [[nodiscard]] std::vector<inference::Alert> infer_epoch(
      const inference::RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {});

  /// Per-shard accounting for the current epoch (valid any time after
  /// begin_epoch; reset by the next one).
  [[nodiscard]] const std::vector<ShardEpochStats>& shard_stats()
      const noexcept {
    return stats_;
  }

  // ---- one-shot inference (replay- and workbench-style callers) ----------

  /// Runs the root engine over a pre-built aggregate, bypassing the
  /// epoch/shard flow — for callers that already hold one aggregate
  /// (retroactive replay, rule workbenches).  Identical to
  /// InferenceEngine::infer.
  [[nodiscard]] std::vector<inference::Alert> infer(
      const inference::AggregatedSummary& aggregate,
      const inference::RawPacketFetcher& fetch,
      const telemetry::SpanContext& parent = {}) {
    return root_.infer(aggregate, fetch, parent);
  }

  // ---- topology ----------------------------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return ring_.shards();
  }
  [[nodiscard]] std::size_t shard_of(summarize::MonitorId m) const noexcept {
    return ring_.owner(m);
  }
  /// Whether a shard is up in the current epoch.
  [[nodiscard]] bool shard_up(std::size_t s) const noexcept {
    return s < stats_.size() && !stats_[s].down;
  }
  [[nodiscard]] const ShardingConfig& sharding() const noexcept {
    return sharding_;
  }

  // ---- root-engine surface (forwarded knobs) -----------------------------

  /// The root engine: decision phase, stats, questions, rules.  The mutable
  /// overload exists for replay-style callers (store::StoreReplayer takes
  /// an engine); deployment code should not need it.
  [[nodiscard]] const inference::InferenceEngine& engine() const noexcept {
    return root_;
  }
  [[nodiscard]] inference::InferenceEngine& engine() noexcept { return root_; }

  void set_tau_c_scale(double scale) noexcept {
    root_.set_tau_c_scale(scale);
  }
  void set_report_fraction(double fraction) noexcept {
    root_.set_report_fraction(fraction);
  }
  void set_caution(double caution) noexcept { root_.set_caution(caution); }

  /// Attaches the shared runtime: the tier fans per-shard aggregation and
  /// matching out over it, and the root engine parallelizes its own
  /// matching in the shards == 1 path.  Null detaches (serial).
  void set_pool(std::shared_ptr<runtime::ThreadPool> pool);

  /// Attaches telemetry to the root engine, plus — at shards > 1 —
  /// per-shard 'jaal_shard_*{shard="..."}' series.  (Registered only for a
  /// genuinely sharded tier so a shards == 1 deployment's metric set is
  /// unchanged; the persisted ops timeline excludes them either way, see
  /// telemetry::is_tier_shape_metric.)
  void set_telemetry(telemetry::Telemetry* tel);

  /// Attaches the persistence sink: add_summary persists every *accepted*
  /// summary under the current epoch (refused ones are lost, matching the
  /// aggregate).  Null detaches.  Must outlive the tier.
  void set_store(store::DeploymentStore* store) noexcept { store_ = store; }

 private:
  struct Shard {
    /// Buffered summaries in arrival order, already reconstructed to
    /// combined form; seq[i] is buf[i]'s global arrival number.
    std::vector<summarize::CombinedSummary> buf;
    std::vector<std::uint64_t> seq;
    /// This epoch's shard-level aggregate and its row map into the global
    /// aggregate (shards > 1 only).
    inference::AggregatedSummary agg;
    std::vector<std::size_t> to_global;
    /// Matching engine (shards > 1 only; never decides, no
    /// telemetry, no pool — shards themselves run concurrently).
    std::unique_ptr<inference::InferenceEngine> engine;
    telemetry::Counter* tel_summaries = nullptr;
    telemetry::Counter* tel_rows = nullptr;
    telemetry::Counter* tel_lost = nullptr;
    telemetry::Counter* tel_down_epochs = nullptr;
  };

  /// Builds one shard's aggregate from its buffer (concatenation in arrival
  /// order — the shard-level Aggregator).
  [[nodiscard]] static inference::AggregatedSummary build_shard_aggregate(
      const Shard& s);

  ShardingConfig sharding_;
  HashRing ring_;
  inference::InferenceEngine root_;
  std::vector<Shard> shards_;
  std::vector<ShardEpochStats> stats_;
  std::vector<faults::ShardCrashWindow> shard_faults_;
  telemetry::Telemetry* tel_ = nullptr;
  std::shared_ptr<runtime::ThreadPool> pool_;
  store::DeploymentStore* store_ = nullptr;
  inference::AggregatedSummary global_;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 0;
  bool aggregated_ = false;  ///< aggregate_epoch ran for the current epoch.
};

}  // namespace jaal::shard
