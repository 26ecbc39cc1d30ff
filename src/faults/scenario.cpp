#include "faults/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace jaal::faults {

double RetryPolicy::max_total_backoff_s() const noexcept {
  double total = 0.0;
  double step = base_backoff_s;
  // One backoff interval precedes each retry, so max_attempts attempts
  // accrue at most max_attempts - 1 intervals.
  for (std::size_t i = 1; i < max_attempts; ++i) {
    total += step;
    step *= multiplier;
  }
  return std::min(total, timeout_s);
}

bool FaultScenario::fault_free() const noexcept {
  return drop_rate == 0.0 && delay_mean_s == 0.0 && delay_jitter_s == 0.0 &&
         crashes.empty() && shard_crashes.empty() &&
         feedback_failure_rate == 0.0;
}

void FaultScenario::validate() const {
  // Every range check is written so that NaN fails it.
  auto probability = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument(std::string("FaultScenario: ") + what +
                                  " must be in [0, 1]");
    }
  };
  probability(drop_rate, "drop_rate");
  probability(feedback_failure_rate, "feedback_failure_rate");
  if (!(delay_mean_s >= 0.0 && delay_jitter_s >= 0.0)) {
    throw std::invalid_argument("FaultScenario: delays must be >= 0");
  }
  for (const CrashWindow& c : crashes) {
    if (c.restart_epoch < c.crash_epoch) {
      throw std::invalid_argument(
          "FaultScenario: crash window restart_epoch < crash_epoch");
    }
  }
  for (const ShardCrashWindow& c : shard_crashes) {
    if (c.restart_epoch < c.crash_epoch) {
      throw std::invalid_argument(
          "FaultScenario: tier outage window restart_epoch < crash_epoch");
    }
  }
  if (retry.max_attempts == 0) {
    throw std::invalid_argument("FaultScenario: retry.max_attempts must be >= 1");
  }
  if (!(retry.base_backoff_s >= 0.0 && retry.timeout_s >= 0.0)) {
    throw std::invalid_argument("FaultScenario: retry backoff must be >= 0");
  }
  if (!(retry.multiplier >= 1.0)) {
    throw std::invalid_argument("FaultScenario: retry.multiplier must be >= 1");
  }
}

}  // namespace jaal::faults
