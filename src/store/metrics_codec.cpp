#include "store/metrics_codec.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "telemetry/export.hpp"

namespace jaal::store {
namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_double(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xFF));
  }
}

/// Streaming reader over a payload; every get_* reports failure by flipping
/// ok, so decoders can chain reads and check once.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t get_u8() noexcept {
    if (pos >= data.size()) {
      ok = false;
      return 0;
    }
    return data[pos++];
  }

  std::uint64_t get_varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos >= data.size()) {
        ok = false;
        return 0;
      }
      const std::uint8_t b = data[pos++];
      v |= std::uint64_t{b & 0x7Fu} << shift;
      if ((b & 0x80u) == 0) return v;
    }
    ok = false;  // more than 10 continuation bytes: malformed
    return 0;
  }

  double get_double() noexcept {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= std::uint64_t{data[pos + static_cast<std::size_t>(i)]}
              << (8 * i);
    }
    pos += 8;
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  std::string get_string(std::size_t len) {
    if (pos + len > data.size()) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data.data() + pos), len);
    pos += len;
    return s;
  }
};

}  // namespace

std::vector<std::uint8_t> encode_metrics_delta(
    const telemetry::MetricsSnapshot& delta) {
  using telemetry::MetricKind;
  std::vector<const telemetry::MetricsSnapshot::Entry*> kept;
  kept.reserve(delta.entries.size());
  for (const auto& e : delta.entries) {
    if (telemetry::is_wall_clock_metric(e.name)) continue;
    // The store's own I/O accounting is self-referential (each append grows
    // it), so it stays out of the ops bytes.  The live registry still
    // exports the family.
    if (e.name.rfind("jaal_store_", 0) == 0) continue;
    if (e.kind == MetricKind::kCounter && e.counter == 0) continue;
    if (e.kind == MetricKind::kHistogram && e.histogram.count == 0) continue;
    kept.push_back(&e);
  }
  std::sort(kept.begin(), kept.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });

  std::vector<std::uint8_t> out;
  out.push_back(kMetricsPayloadMagic);
  out.push_back(kMetricsPayloadVersion);
  put_varint(out, kept.size());
  for (const auto* e : kept) {
    put_varint(out, e->name.size());
    out.insert(out.end(), e->name.begin(), e->name.end());
    switch (e->kind) {
      case MetricKind::kCounter:
        out.push_back(0);
        put_varint(out, e->counter);
        break;
      case MetricKind::kGauge:
        out.push_back(1);
        put_varint(out, zigzag(e->gauge));
        break;
      case MetricKind::kHistogram: {
        out.push_back(2);
        put_varint(out, e->histogram.count);
        put_double(out, e->histogram.sum);
        put_double(out, e->histogram.max);
        std::uint64_t nonzero = 0;
        for (const std::uint64_t b : e->histogram.buckets) {
          if (b != 0) ++nonzero;
        }
        put_varint(out, nonzero);
        for (std::size_t b = 0; b < e->histogram.buckets.size(); ++b) {
          if (e->histogram.buckets[b] == 0) continue;
          put_varint(out, b);
          put_varint(out, e->histogram.buckets[b]);
        }
        break;
      }
    }
  }
  return out;
}

std::optional<telemetry::MetricsSnapshot> decode_metrics_delta(
    std::span<const std::uint8_t> payload) {
  using telemetry::MetricKind;
  Reader r{payload};
  if (r.get_u8() != kMetricsPayloadMagic ||
      r.get_u8() != kMetricsPayloadVersion || !r.ok) {
    return std::nullopt;
  }
  const std::uint64_t count = r.get_varint();
  telemetry::MetricsSnapshot snap;
  for (std::uint64_t i = 0; r.ok && i < count; ++i) {
    telemetry::MetricsSnapshot::Entry e;
    const std::uint64_t name_len = r.get_varint();
    if (!r.ok || name_len > payload.size()) return std::nullopt;
    e.name = r.get_string(static_cast<std::size_t>(name_len));
    const std::uint8_t kind = r.get_u8();
    switch (kind) {
      case 0:
        e.kind = MetricKind::kCounter;
        e.counter = r.get_varint();
        break;
      case 1:
        e.kind = MetricKind::kGauge;
        e.gauge = unzigzag(r.get_varint());
        break;
      case 2: {
        e.kind = MetricKind::kHistogram;
        e.histogram.count = r.get_varint();
        e.histogram.sum = r.get_double();
        e.histogram.max = r.get_double();
        e.histogram.buckets.assign(telemetry::Histogram::kBucketCount, 0);
        const std::uint64_t nonzero = r.get_varint();
        for (std::uint64_t b = 0; r.ok && b < nonzero; ++b) {
          const std::uint64_t idx = r.get_varint();
          const std::uint64_t cnt = r.get_varint();
          if (idx >= e.histogram.buckets.size()) return std::nullopt;
          e.histogram.buckets[idx] = cnt;
        }
        break;
      }
      default:
        return std::nullopt;
    }
    if (!r.ok) return std::nullopt;
    snap.entries.push_back(std::move(e));
  }
  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  return snap;
}

std::vector<std::uint8_t> encode_flight_events(
    std::span<const observe::FlightEvent> events) {
  std::vector<std::uint8_t> out;
  out.push_back(kEventsPayloadMagic);
  out.push_back(kEventsPayloadVersion);
  put_varint(out, events.size());
  for (const observe::FlightEvent& e : events) {
    put_varint(out, e.seq);
    put_varint(out, e.epoch);
    out.push_back(static_cast<std::uint8_t>(e.kind));
    put_varint(out, e.actor);
    put_double(out, e.a);
    put_double(out, e.b);
    put_double(out, e.c);
    for (const std::uint64_t u : e.u) put_varint(out, u);
  }
  return out;
}

std::optional<std::vector<observe::FlightEvent>> decode_flight_events(
    std::span<const std::uint8_t> payload) {
  Reader r{payload};
  if (r.get_u8() != kEventsPayloadMagic ||
      r.get_u8() != kEventsPayloadVersion || !r.ok) {
    return std::nullopt;
  }
  const std::uint64_t count = r.get_varint();
  std::vector<observe::FlightEvent> out;
  for (std::uint64_t i = 0; r.ok && i < count; ++i) {
    observe::FlightEvent e;
    e.seq = r.get_varint();
    e.epoch = r.get_varint();
    const std::uint8_t kind = r.get_u8();
    if (kind < static_cast<std::uint8_t>(
                   observe::FlightEventKind::kEpochClose) ||
        kind > static_cast<std::uint8_t>(observe::FlightEventKind::kProfile)) {
      return std::nullopt;
    }
    e.kind = static_cast<observe::FlightEventKind>(kind);
    e.actor = static_cast<std::uint32_t>(r.get_varint());
    e.a = r.get_double();
    e.b = r.get_double();
    e.c = r.get_double();
    for (std::uint64_t& u : e.u) u = r.get_varint();
    if (!r.ok) return std::nullopt;
    out.push_back(e);
  }
  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  return out;
}

}  // namespace jaal::store
