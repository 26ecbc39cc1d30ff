#include "core/alert_log.hpp"

#include <ostream>

#include "inference/alert_json.hpp"

namespace jaal::core {

AlertLogger::AlertLogger(std::ostream& out) : out_(&out) {}

std::size_t AlertLogger::log_epoch(double epoch_end_time,
                                   const std::vector<inference::Alert>& alerts) {
  for (const auto& alert : alerts) {
    *out_ << inference::alert_to_json(alert, epoch_end_time) << '\n';
    ++lines_;
  }
  return alerts.size();
}

}  // namespace jaal::core
