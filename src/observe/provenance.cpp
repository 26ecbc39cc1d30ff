#include "observe/provenance.hpp"

#include <charconv>

#include "telemetry/json.hpp"

namespace jaal::observe {
namespace {

using telemetry::fmt_double;

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

const char* to_string(ThresholdCase c) noexcept {
  switch (c) {
    case ThresholdCase::kStrictMatch: return "strict_match";
    case ThresholdCase::kUncertainVerified: return "uncertain_verified";
    case ThresholdCase::kUncertainAssumed: return "uncertain_assumed";
  }
  return "unknown";
}

double AlertProvenance::mean_margin() const noexcept {
  if (centroids.empty()) return 0.0;
  const bool strict = threshold_case == ThresholdCase::kStrictMatch;
  double sum = 0.0;
  for (const CentroidEvidence& c : centroids) {
    sum += strict ? c.margin_d1 : c.margin_d2;
  }
  return sum / static_cast<double>(centroids.size());
}

std::string to_json(const AlertProvenance& p) {
  std::string out;
  out.reserve(512 + 128 * p.centroids.size());  // ~ the record's length
  out += "{\"kind\":\"provenance\",\"sid\":";
  append_u64(out, p.sid);
  out += ",\"case\":\"";
  out += to_string(p.threshold_case);
  out += "\",\"tau_d1\":" + fmt_double(p.tau_d1);
  out += ",\"tau_d2\":" + fmt_double(p.tau_d2);
  out += ",\"tau_c\":";
  append_u64(out, p.tau_c);
  out += ",\"tau_c_scale\":" + fmt_double(p.tau_c_scale);
  out += ",\"strict_count\":";
  append_u64(out, p.strict_count);
  out += ",\"loose_count\":";
  append_u64(out, p.loose_count);
  out += ",\"report_fraction\":" + fmt_double(p.report_fraction);
  out += ",\"caution\":" + fmt_double(p.caution);
  out += ",\"mean_margin\":" + fmt_double(p.mean_margin());
  out += ",\"monitors\":[";
  for (std::size_t i = 0; i < p.monitors.size(); ++i) {
    if (i != 0) out += ',';
    append_u64(out, p.monitors[i]);
  }
  out += "],\"centroids\":[";
  for (std::size_t i = 0; i < p.centroids.size(); ++i) {
    const CentroidEvidence& c = p.centroids[i];
    if (i != 0) out += ',';
    out += "{\"monitor\":";
    append_u64(out, c.monitor);
    out += ",\"index\":";
    append_u64(out, c.local_index);
    out += ",\"count\":";
    append_u64(out, c.count);
    // The bulk of the record: append in place, no temporaries.
    out += ",\"distance\":";
    telemetry::append_double(out, c.distance);
    out += ",\"margin_d1\":";
    telemetry::append_double(out, c.margin_d1);
    out += ",\"margin_d2\":";
    telemetry::append_double(out, c.margin_d2);
    out += "}";
  }
  out += "],\"feedback\":{\"requested\":";
  out += p.feedback.requested ? "true" : "false";
  out += ",\"fallback\":";
  out += p.feedback.fallback ? "true" : "false";
  out += ",\"attempts\":";
  append_u64(out, p.feedback.attempts);
  out += ",\"backoff_s\":" + fmt_double(p.feedback.backoff_s);
  out += ",\"raw_packets\":";
  append_u64(out, p.feedback.raw_packets);
  out += ",\"raw_confirmed\":";
  out += p.feedback.raw_confirmed ? "true" : "false";
  out += "},\"variance\":" + fmt_double(p.variance);
  out += ",\"distributed\":";
  out += p.distributed ? "true" : "false";
  out += ",\"verified\":";
  out += p.verified ? "true" : "false";
  out += "}";
  return out;
}

std::string to_jsonl(
    const std::vector<std::shared_ptr<const AlertProvenance>>& records) {
  std::string out;
  for (const auto& p : records) {
    if (!p) continue;
    out += to_json(*p);
    out += '\n';
  }
  return out;
}

}  // namespace jaal::observe
