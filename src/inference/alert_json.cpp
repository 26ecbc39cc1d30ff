#include "inference/alert_json.hpp"

#include <cstdio>

#include "telemetry/json.hpp"

namespace jaal::inference {

std::string alert_to_json(const Alert& alert, double epoch_end_time) {
  std::string out = "{\"time\":";
  char num[64];
  std::snprintf(num, sizeof(num), "%.6f", epoch_end_time);
  out += num;
  out += ",\"sid\":" + std::to_string(alert.sid);
  out += ",\"msg\":\"" + telemetry::json_escape(alert.msg);
  out += "\",\"matched_packets\":" + std::to_string(alert.matched_packets);
  out += ",\"distributed\":";
  out += alert.distributed ? "true" : "false";
  out += ",\"via_feedback\":";
  out += alert.via_feedback ? "true" : "false";
  std::snprintf(num, sizeof(num), "%.8f", alert.variance);
  out += ",\"variance\":";
  out += num;
  std::snprintf(num, sizeof(num), "%.8f", alert.confidence);
  out += ",\"confidence\":";
  out += num;
  std::snprintf(num, sizeof(num), "%.8f", alert.caution);
  out += ",\"caution\":";
  out += num;
  out += "}";
  return out;
}

}  // namespace jaal::inference
