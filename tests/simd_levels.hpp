// Test helpers for running a check at every SIMD dispatch level.
#pragma once

#include <vector>

#include "linalg/simd.hpp"

namespace jaal::test {

/// All levels this host can actually run (always includes scalar).
inline std::vector<linalg::simd::Level> available_levels() {
  using linalg::simd::Level;
  std::vector<Level> levels = {Level::kScalar};
  if (linalg::simd::detected() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  if (linalg::simd::detected() >= Level::kAvx512) {
    levels.push_back(Level::kAvx512);
  }
  return levels;
}

/// RAII pin of the dispatch level so a failing assertion cannot leak a
/// forced level into other tests.
struct ForcedLevel {
  explicit ForcedLevel(linalg::simd::Level level)
      : prev(linalg::simd::active()) {
    linalg::simd::force_level(level);
  }
  ~ForcedLevel() { linalg::simd::force_level(prev); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
  linalg::simd::Level prev;
};

}  // namespace jaal::test
