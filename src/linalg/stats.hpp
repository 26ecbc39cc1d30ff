// Statistical helpers used by the postprocessor (Algorithm 2) and the
// variance-estimation experiments (Fig. 11).
#pragma once

#include <cstdint>
#include <span>

namespace jaal::linalg {

/// Arithmetic mean.  Returns 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Population variance.  Returns 0 for spans of size < 2.
[[nodiscard]] double variance(std::span<const double> values) noexcept;

/// Population variance of the expanded multiset where values[i] occurs
/// weights[i] times.  This is exactly what Algorithm 2 computes when it adds
/// x_i(h) to Z c_i times.  Throws std::invalid_argument on size mismatch.
[[nodiscard]] double weighted_variance(std::span<const double> values,
                                       std::span<const std::uint64_t> weights);

/// Streaming mean/variance accumulator (Welford).  Single pass, numerically
/// stable; used by monitors that track per-field spread online.
class RunningStats {
 public:
  void add(double x) noexcept;
  void add(double x, std::uint64_t weight) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance; 0 if fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace jaal::linalg
