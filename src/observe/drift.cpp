#include "observe/drift.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace jaal::observe {

using telemetry::fmt_double;

void DriftConfig::validate() const {
  if (!(alpha > 0.0) || alpha > 1.0) {
    throw std::invalid_argument("DriftConfig: alpha must be in (0, 1]");
  }
  if (!(z_enter > 0.0) || z_exit < 0.0 || z_exit > z_enter) {
    throw std::invalid_argument(
        "DriftConfig: need 0 <= z_exit <= z_enter, z_enter > 0");
  }
  if (rel_floor < 0.0 || abs_floor < 0.0) {
    throw std::invalid_argument("DriftConfig: floors must be >= 0");
  }
}

std::string to_json(const HealthEvent& event) {
  std::string out = "{\"kind\":\"";
  out += event.kind == HealthEventKind::kDriftStart ? "drift_start"
                                                    : "drift_end";
  out += "\",\"epoch\":" + std::to_string(event.epoch);
  out += ",\"monitor\":" + std::to_string(event.monitor);
  out += ",\"metric\":\"" + event.metric + "\"";
  out += ",\"value\":" + fmt_double(event.value);
  out += ",\"baseline\":" + fmt_double(event.baseline);
  out += ",\"z\":" + fmt_double(event.z);
  out += "}";
  return out;
}

DriftDetector::DriftDetector(const DriftConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
}

double DriftDetector::observe(double x) {
  transitioned_ = false;
  if (n_ == 0) {
    // First sample seeds the baseline; no deviation to judge yet.
    mean_ = x;
    var_ = 0.0;
    n_ = 1;
    last_z_ = 0.0;
    return 0.0;
  }

  const double d = x - mean_;
  double z = 0.0;
  if (n_ >= cfg_.warmup) {
    const double sigma =
        std::max({std::sqrt(var_), cfg_.rel_floor * std::fabs(mean_),
                  cfg_.abs_floor});
    z = d / sigma;
    if (!drifting_ && std::fabs(z) >= cfg_.z_enter) {
      drifting_ = true;
      transitioned_ = true;
    } else if (drifting_ && std::fabs(z) <= cfg_.z_exit) {
      drifting_ = false;
      transitioned_ = true;
    }
  }
  last_z_ = z;

  // EWMA update (exponentially weighted mean and variance; West 1979
  // form).  Deliberately after the decision so each sample is judged
  // against the baseline that *predates* it.
  mean_ += cfg_.alpha * d;
  var_ = (1.0 - cfg_.alpha) * (var_ + cfg_.alpha * d * d);
  ++n_;
  return z;
}

}  // namespace jaal::observe
