// Retroactive inference over stored summaries — the paper's headline
// ISP-scale operation: translate a *new* Snort rule today and run it over
// last week's summaries without the raw packets.
//
// The replayer walks the summaries log epoch by epoch (zero-copy shard
// iteration), rebuilds each committed epoch's aggregate in the exact order
// the live controller aggregated it, restores the engine's per-epoch state
// from the EpochMeta commit record (tau_c volume scale, report fraction,
// caution), and runs InferenceEngine::infer feedback-free — raw packets are
// gone, so case-3 uncertain matches fall to the loose-threshold decision
// (ThresholdCase::kUncertainAssumed), exactly as a live run with feedback
// disabled.  Against such a run the replayed alerts are byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "inference/engine.hpp"
#include "store/store.hpp"

namespace jaal::store {

/// One replayed epoch: the stored context plus the alerts the engine
/// raised over the stored aggregate.
struct ReplayEpoch {
  std::uint64_t epoch = 0;
  double end_time = 0.0;
  std::uint64_t packets = 0;
  double report_fraction = 1.0;
  double caution = 0.0;
  /// Shard count of the writing deployment (see EpochMeta::shard_count).
  /// Replay is shard-agnostic: summaries were persisted in arrival order,
  /// so the rebuilt aggregate equals the live tier's.
  std::uint64_t shard_count = 1;
  std::size_t summaries = 0;  ///< Summaries aggregated this epoch.
  std::vector<inference::Alert> alerts;
};

class StoreReplayer {
 public:
  /// Opens the store read-only.  Throws std::invalid_argument on a missing
  /// directory or incompatible shards.
  explicit StoreReplayer(const StoreConfig& cfg);

  /// Runs `engine` over every committed epoch in order.  The engine is
  /// typically built from a *different* ruleset than the live run — that is
  /// the point.  `base_tau_c_scale` is the deployment's configured
  /// EngineConfig::tau_c_scale; the per-epoch packet-volume scaling the
  /// controller applies on top is reproduced from each EpochMeta.
  /// Uncommitted trailing summaries (no EpochMeta) are ignored.  Throws
  /// std::runtime_error on a summary summarize::parse_summary refuses, such
  /// as a float64 (version 2) summary of a store written by an older build.
  [[nodiscard]] std::vector<ReplayEpoch> replay(
      inference::InferenceEngine& engine,
      double base_tau_c_scale = 1.0) const;

  [[nodiscard]] const DeploymentStore& store() const noexcept {
    return store_;
  }

 private:
  DeploymentStore store_;
};

}  // namespace jaal::store
