#include "linalg/stats.hpp"

#include <stdexcept>

namespace jaal::linalg {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - m) * (v - m);
  return sum / static_cast<double>(values.size());
}

double weighted_variance(std::span<const double> values,
                         std::span<const std::uint64_t> weights) {
  if (values.size() != weights.size()) {
    throw std::invalid_argument("weighted_variance: size mismatch");
  }
  double weighted_sum = 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted_sum += values[i] * static_cast<double>(weights[i]);
    total += weights[i];
  }
  if (total < 2) return 0.0;
  const double m = weighted_sum / static_cast<double>(total);
  double sum = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += static_cast<double>(weights[i]) * (values[i] - m) * (values[i] - m);
  }
  return sum / static_cast<double>(total);
}

void RunningStats::add(double x) noexcept { add(x, 1); }

void RunningStats::add(double x, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  // Chan et al. weighted update, equivalent to `weight` Welford steps.
  const double w = static_cast<double>(weight);
  const double total = static_cast<double>(count_) + w;
  const double delta = x - mean_;
  mean_ += delta * w / total;
  m2_ += delta * delta * w * static_cast<double>(count_) / total;
  count_ += weight;
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

}  // namespace jaal::linalg
