#include "observe/flight_recorder.hpp"

#include <bit>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace jaal::observe {
namespace {

using telemetry::fmt_double;

bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

const char* flight_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kEpochClose: return "epoch_close";
    case FlightEventKind::kFidelity: return "fidelity";
    case FlightEventKind::kDriftStart: return "drift_start";
    case FlightEventKind::kDriftEnd: return "drift_end";
    case FlightEventKind::kShip: return "ship";
    case FlightEventKind::kFeedback: return "feedback";
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kProfile: return "profile";
  }
  return "unknown";
}

const char* drift_metric_name(std::uint64_t id) noexcept {
  switch (id) {
    case 0: return "svd_energy";
    case 1: return "kmeans_inertia";
    case 2: return "recon_error";
    default: return "unknown";
  }
}

std::uint64_t drift_metric_id(const std::string& name) noexcept {
  if (name == "svd_energy") return 0;
  if (name == "kmeans_inertia") return 1;
  return 2;  // "recon_error"
}

std::string to_json(const FlightEvent& event) {
  std::string out = "{\"seq\":" + std::to_string(event.seq);
  out += ",\"epoch\":" + std::to_string(event.epoch);
  out += ",\"kind\":\"";
  out += flight_kind_name(event.kind);
  out += "\",\"actor\":" + std::to_string(event.actor);
  out += ",\"a\":" + fmt_double(event.a);
  out += ",\"b\":" + fmt_double(event.b);
  out += ",\"c\":" + fmt_double(event.c);
  out += ",\"u\":[";
  for (int i = 0; i < 6; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(event.u[i]);
  }
  out += "]}";
  return out;
}

FlightEvent fidelity_event(const FidelityStats& s) noexcept {
  return {.kind = FlightEventKind::kFidelity, .actor = s.monitor,
          .a = s.svd_energy_retained, .b = s.kmeans_inertia,
          .c = s.reconstruction_error, .u = {s.batch_packets}};
}

FidelityStats fidelity_from_event(const FlightEvent& ev) noexcept {
  return {.epoch = ev.epoch, .monitor = ev.actor,
          .batch_packets = static_cast<std::size_t>(ev.u[0]),
          .svd_energy_retained = ev.a, .kmeans_inertia = ev.b,
          .reconstruction_error = ev.c};
}

FlightEvent drift_event(const HealthEvent& e) noexcept {
  return {.kind = e.kind == HealthEventKind::kDriftStart
                      ? FlightEventKind::kDriftStart
                      : FlightEventKind::kDriftEnd,
          .actor = e.monitor, .a = e.value, .b = e.baseline, .c = e.z,
          .u = {drift_metric_id(e.metric)}};
}

bool drift_matches(const FlightEvent& stored,
                   const HealthEvent& derived) noexcept {
  const bool stored_start = stored.kind == FlightEventKind::kDriftStart;
  const bool derived_start = derived.kind == HealthEventKind::kDriftStart;
  return stored_start == derived_start && stored.epoch == derived.epoch &&
         stored.actor == derived.monitor &&
         drift_metric_name(stored.u[0]) == derived.metric &&
         bits_equal(stored.a, derived.value) &&
         bits_equal(stored.b, derived.baseline) &&
         bits_equal(stored.c, derived.z);
}

FlightEvent epoch_close_event(const HealthTracker::EpochDegradation& d,
                              double caution,
                              std::size_t monitor_count) noexcept {
  return {.kind = FlightEventKind::kEpochClose,
          .actor = static_cast<std::uint32_t>(d.alerts),
          .a = d.report_fraction, .b = caution,
          .c = static_cast<double>(monitor_count),
          .u = {d.monitors_crashed, d.summaries_dropped, d.summaries_late,
                d.summaries_rolled_in, d.packets_lost, d.feedback_fallbacks}};
}

HealthTracker::EpochDegradation degradation_from_event(
    const FlightEvent& ev) noexcept {
  return {.report_fraction = ev.a,
          .monitors_crashed = static_cast<std::size_t>(ev.u[0]),
          .summaries_dropped = static_cast<std::size_t>(ev.u[1]),
          .summaries_late = static_cast<std::size_t>(ev.u[2]),
          .summaries_rolled_in = static_cast<std::size_t>(ev.u[3]),
          .packets_lost = ev.u[4], .feedback_fallbacks = ev.u[5],
          .alerts = static_cast<std::size_t>(ev.actor)};
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  }
  slots_.reset(new Slot[capacity_]);
}

void FlightRecorder::record(FlightEvent event) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_acq_rel);
  event.seq = seq;
  Slot& s = slots_[seq % capacity_];
  s.ev = event;
  s.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t total = next_.load(std::memory_order_acquire);
  const std::uint64_t first = total > capacity_ ? total - capacity_ : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(total - first));
  for (std::uint64_t i = first; i < total; ++i) {
    const Slot& s = slots_[i % capacity_];
    // A stamp other than i + 1 means this generation was overwritten (or
    // not yet published) — skip it rather than return torn data.
    if (s.stamp.load(std::memory_order_acquire) != i + 1) continue;
    out.push_back(s.ev);
  }
  return out;
}

std::string FlightRecorder::dump_jsonl() const {
  dumps_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<FlightEvent> events = snapshot();
  std::string out = "{\"kind\":\"flight_recorder\",\"capacity\":" +
                    std::to_string(capacity_);
  out += ",\"total_recorded\":" + std::to_string(total_recorded());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"events\":" + std::to_string(events.size());
  out += "}\n";
  for (const FlightEvent& e : events) {
    out += to_json(e);
    out += '\n';
  }
  return out;
}

}  // namespace jaal::observe
