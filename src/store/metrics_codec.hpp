// Payload codecs for the store's operational records:
//   kMetrics  one per-epoch MetricsSnapshot *delta* (what the registry
//             accumulated during that epoch — see MetricsSnapshot::diff),
//             compact varint encoding, deterministic: entries sorted by
//             name, wall-clock metrics (telemetry::is_wall_clock_metric)
//             and zero deltas elided;
//   kEvents   the flight-recorder events the controller raised while
//             closing that epoch, fixed-field varint encoding.
//
// Both payloads start with a one-byte magic and a one-byte version.  The
// decoder refuses any payload whose magic or version it does not know
// (returns nullopt) — a CRC-valid record from a newer build must never be
// misparsed as this build's layout.  Bump the version constant whenever the
// payload layout changes.
//
// Wire formats (all integers LEB128 varints, doubles as 8-byte LE IEEE-754
// bit patterns):
//
//   metrics  := 'M' version=1 count entry*
//   entry    := name_len name_bytes kind(u8) body
//   body     := counter_delta                          (kind 0, counter)
//             | zigzag(gauge_value)                    (kind 1, gauge)
//             | count_delta sum_bits max_bits
//               nonzero_buckets (bucket_index delta)*  (kind 2, histogram)
//
//   events   := 'E' version=1 count event*
//   event    := seq epoch kind(u8) actor a_bits b_bits c_bits u0..u5
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "observe/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace jaal::store {

inline constexpr std::uint8_t kMetricsPayloadMagic = 'M';
inline constexpr std::uint8_t kMetricsPayloadVersion = 1;
inline constexpr std::uint8_t kEventsPayloadMagic = 'E';
inline constexpr std::uint8_t kEventsPayloadVersion = 1;

/// Encodes a metrics *delta* snapshot (normally the result of
/// MetricsSnapshot::diff).  Deterministic: sorts by name, drops wall-clock
/// metrics, drops counters with zero delta and histograms with zero count
/// delta.  Gauges are always kept (a zero gauge is an observation).
[[nodiscard]] std::vector<std::uint8_t> encode_metrics_delta(
    const telemetry::MetricsSnapshot& delta);

/// Decodes a kMetrics payload; nullopt on unknown magic/version or a
/// malformed body.
[[nodiscard]] std::optional<telemetry::MetricsSnapshot> decode_metrics_delta(
    std::span<const std::uint8_t> payload);

/// Encodes one epoch's flight events in the given order.
[[nodiscard]] std::vector<std::uint8_t> encode_flight_events(
    std::span<const observe::FlightEvent> events);

/// Decodes a kEvents payload; nullopt on unknown magic/version or a
/// malformed body.
[[nodiscard]] std::optional<std::vector<observe::FlightEvent>>
decode_flight_events(std::span<const std::uint8_t> payload);

}  // namespace jaal::store
