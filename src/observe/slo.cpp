#include "observe/slo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace jaal::observe {

using telemetry::fmt_double;

void SloConfig::validate() const {
  if (!(objective > 0.0) || !(objective < 1.0)) {
    throw std::invalid_argument("SloConfig: objective must be in (0, 1)");
  }
  if (!(report_fraction_min > 0.0) || report_fraction_min > 1.0) {
    throw std::invalid_argument(
        "SloConfig: report_fraction_min must be in (0, 1]");
  }
  if (!(latency_target_ms > 0.0)) {
    throw std::invalid_argument("SloConfig: latency_target_ms must be > 0");
  }
  if (window == 0) {
    throw std::invalid_argument("SloConfig: window must be > 0");
  }
}

SloTracker::SloTracker(const SloConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  rf_window_.assign(cfg_.window, 0);
}

void SloTracker::observe_epoch(std::uint64_t /*epoch*/,
                               double report_fraction, double latency_ms) {
  ++epochs_;
  const bool rf_bad = report_fraction < cfg_.report_fraction_min;
  if (rf_bad) ++rf_bad_;
  last_latency_breached_ =
      latency_ms >= 0.0 && latency_ms > cfg_.latency_target_ms;
  if (last_latency_breached_) ++lat_bad_;

  window_bad_ -= rf_window_[window_pos_];
  rf_window_[window_pos_] = rf_bad ? 1 : 0;
  window_bad_ += rf_window_[window_pos_];
  window_pos_ = (window_pos_ + 1) % rf_window_.size();
}

void SloTracker::attribute_latency(const std::string& dominant_stage) {
  if (dominant_stage.empty()) return;
  last_dominant_stage_ = dominant_stage;
  if (!last_latency_breached_) return;
  for (auto& [stage, count] : stage_breaches_) {
    if (stage == dominant_stage) {
      ++count;
      return;
    }
  }
  stage_breaches_.emplace_back(dominant_stage, 1);
}

std::vector<std::pair<std::string, std::uint64_t>>
SloTracker::breaches_by_stage() const {
  auto out = stage_breaches_;
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::int64_t SloTracker::budget_permille(std::uint64_t bad) const noexcept {
  if (epochs_ == 0) return 1000;
  const double allowed = (1.0 - cfg_.objective) * static_cast<double>(epochs_);
  const double remaining =
      std::clamp(1.0 - static_cast<double>(bad) / allowed, 0.0, 1.0);
  return static_cast<std::int64_t>(std::llround(remaining * 1000.0));
}

std::int64_t SloTracker::rf_budget_remaining_permille() const noexcept {
  return budget_permille(rf_bad_);
}

std::int64_t SloTracker::latency_budget_remaining_permille() const noexcept {
  return budget_permille(lat_bad_);
}

std::int64_t SloTracker::rf_burn_rate_permille() const noexcept {
  const std::uint64_t w =
      std::min<std::uint64_t>(epochs_, rf_window_.size());
  if (w == 0) return 0;
  const double bad_rate =
      static_cast<double>(window_bad_) / static_cast<double>(w);
  const double burn = bad_rate / (1.0 - cfg_.objective);
  return static_cast<std::int64_t>(std::llround(burn * 1000.0));
}

std::string SloTracker::to_jsonl() const {
  std::string out = "{\"kind\":\"slo_summary\"";
  out += ",\"objective\":" + fmt_double(cfg_.objective);
  out += ",\"report_fraction_min\":" + fmt_double(cfg_.report_fraction_min);
  out += ",\"window\":" + std::to_string(rf_window_.size());
  out += ",\"epochs\":" + std::to_string(epochs_);
  out += ",\"rf_breaches\":" + std::to_string(rf_bad_);
  out += ",\"rf_budget_remaining_permille\":" +
         std::to_string(rf_budget_remaining_permille());
  out += ",\"rf_burn_rate_permille\":" +
         std::to_string(rf_burn_rate_permille());
  out += "}\n";
  return out;
}

}  // namespace jaal::observe
