// Small helpers for the benchmark binary: order statistics, a stopwatch,
// digests, process memory, directory sizes and the result metric set.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
/// a / b, or 0 when b is 0 (keeps every printed value a finite number).
[[nodiscard]] double ratio(double a, double b) noexcept;

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] double seconds() const { return ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
/// FNV-1a over `size` bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = kFnvBasis) noexcept;
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Peak resident set (VmHWM) in MiB since process start or the last
/// successful reset_peak_rss().
[[nodiscard]] double peak_rss_mib();
/// Restarts the kernel's peak-RSS mark at the current resident set; false
/// when the kernel refuses.
bool reset_peak_rss();

/// Total bytes of the regular files under `dir` whose names start with
/// `prefix`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir,
                                      std::string_view prefix = "");

/// Named metrics with units, printed in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  [[nodiscard]] std::string to_json() const;
  /// One aligned "name  value unit" line per metric.
  [[nodiscard]] std::string to_text() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
