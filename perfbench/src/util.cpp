#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double ratio(double a, double b) noexcept { return b == 0.0 ? 0.0 : a / b; }

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current resident set.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::uint64_t dir_bytes(const std::string& dir, std::string_view prefix) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += entry.file_size(ec);
  }
  return total;
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  char num[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", entries_[i].value);
    out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::string MetricSet::to_text() const {
  std::string out;
  char line[160];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "  %-36s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
