#include "shard/hash_ring.hpp"

#include <algorithm>
#include <stdexcept>

namespace jaal::shard {

std::uint64_t mix64(std::uint64_t x) noexcept {
  // splitmix64 finalizer: full-avalanche, fixed-width, branch-free.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void ShardingConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("ShardingConfig: shards must be >= 1");
  }
  if (virtual_nodes == 0) {
    throw std::invalid_argument("ShardingConfig: virtual_nodes must be >= 1");
  }
}

HashRing::HashRing(const ShardingConfig& cfg)
    : shards_(cfg.shards), seed_(cfg.hash_seed) {
  cfg.validate();
  points_.reserve(cfg.shards * cfg.virtual_nodes);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    for (std::size_t r = 0; r < cfg.virtual_nodes; ++r) {
      const std::uint64_t position =
          mix64(seed_ ^ mix64((std::uint64_t{s} << 32) | r));
      points_.push_back({position, static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Position collisions (astronomically unlikely) break to the
              // lower shard so the ring order is still total.
              return a.position != b.position ? a.position < b.position
                                              : a.shard < b.shard;
            });
}

std::size_t HashRing::owner(summarize::MonitorId monitor) const noexcept {
  if (shards_ == 1) return 0;
  const std::uint64_t h = mix64(seed_ ^ (0xA110C8ED00000000ULL | monitor));
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t pos) { return p.position < pos; });
  // Clockwise successor; wrap to the first point past the top of the circle.
  return it == points_.end() ? points_.front().shard : it->shard;
}

}  // namespace jaal::shard
