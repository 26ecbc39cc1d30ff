// Consistent monitor -> shard assignment for the sharded inference tier.
//
// The ring places `virtual_nodes` seeded points per shard on the 64-bit hash
// circle; a monitor is owned by the shard whose point is the clockwise
// successor of the monitor's hashed position.  Consistent hashing keeps the
// assignment stable under resizing: growing from N to N+1 shards moves only
// the monitors that land on the new shard's points, so per-shard state
// (engine caches, telemetry series) survives a scale-out mostly intact.
//
// Determinism: every point is a pure function of (hash_seed, shard, replica)
// and lookups are pure functions of the monitor id — no wall clock, no
// global state — so an assignment replays byte-identically across runs,
// thread counts, and platforms (the mixer is fixed-width integer math).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "summarize/summary.hpp"

namespace jaal::shard {

/// Configuration of the sharded inference tier.  The default (one shard) is
/// the degenerate single-engine deployment, bit-for-bit.
struct ShardingConfig {
  std::size_t shards = 1;
  /// Seeds the ring's point placement; deployments that must agree on the
  /// assignment (e.g. a replayer reasoning about a live run) share the seed.
  std::uint64_t hash_seed = 0x9A41C0DE;
  /// Ring points per shard.  More points smooth the monitor distribution at
  /// the cost of a larger (still tiny) ring.
  std::size_t virtual_nodes = 16;

  /// Throws std::invalid_argument on zero shards / virtual nodes
  /// (construction-time error policy).
  void validate() const;
};

/// The ring itself.  Built once at tier construction; lookups are O(log
/// points) binary searches.
class HashRing {
 public:
  /// Throws via ShardingConfig::validate.
  explicit HashRing(const ShardingConfig& cfg);

  /// The shard owning this monitor.
  [[nodiscard]] std::size_t owner(summarize::MonitorId monitor) const noexcept;

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;
  };
  std::vector<Point> points_;  ///< Sorted by position.
  std::size_t shards_ = 1;
  std::uint64_t seed_ = 0;
};

/// The fixed 64-bit mixer behind the ring (splitmix64 finalizer) — exposed
/// so tests can pin the placement function itself.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

}  // namespace jaal::shard
