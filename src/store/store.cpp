#include "store/store.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "inference/alert_json.hpp"

namespace jaal::store {
namespace {

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t get_u64_le(const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

std::uint64_t double_bits(double d) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::string_view as_view(std::span<const std::uint8_t> bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

std::vector<std::uint8_t> encode_epoch_meta(const EpochMeta& m) {
  std::vector<std::uint8_t> out;
  out.reserve(32);
  put_u64_le(out, double_bits(m.end_time));
  put_u64_le(out, m.packets);
  put_u64_le(out, double_bits(m.report_fraction));
  put_u64_le(out, double_bits(m.caution));
  return out;
}

std::optional<EpochMeta> decode_epoch_meta(
    std::uint64_t epoch, std::span<const std::uint8_t> payload) {
  if (payload.size() != 32) return std::nullopt;
  EpochMeta m;
  m.epoch = epoch;
  m.end_time = bits_double(get_u64_le(payload.data()));
  m.packets = get_u64_le(payload.data() + 8);
  m.report_fraction = bits_double(get_u64_le(payload.data() + 16));
  m.caution = bits_double(get_u64_le(payload.data() + 24));
  return m;
}

DeploymentStore::DeploymentStore(const StoreConfig& cfg, bool writable,
                                 telemetry::Telemetry* tel)
    : log_({cfg.dir, "summaries", cfg.epochs_per_shard}, writable, tel),
      // The last EpochMeta is the store's commit horizon; finding it walks
      // only the newest shards, back to the first holding one.
      last_committed_(log_.last_epoch(RecordKind::kEpochMeta)),
      writable_(writable),
      tel_(tel) {
  // Records of a half-written epoch (appended, but its meta never landed)
  // must not resurface as data after a restart.
  if (writable) (void)log_.truncate_after_epoch(last_committed_);
}

void DeploymentStore::timed_append(std::uint64_t epoch, std::uint32_t stream,
                                   RecordKind kind,
                                   std::span<const std::uint8_t> payload) {
  if (!profiling()) {
    (void)log_.append(epoch, stream, kind, payload);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  (void)log_.append(epoch, stream, kind, payload);
  append_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  ++append_records_;
  append_bytes_ += payload.size();
}

void DeploymentStore::put_summary(std::uint64_t epoch, std::uint32_t monitor,
                                  std::span<const std::uint8_t> bytes) {
  timed_append(epoch, monitor, RecordKind::kSummary, bytes);
}

void DeploymentStore::put_summary(std::uint64_t epoch,
                                  const summarize::MonitorSummary& s) {
  put_summary(epoch, std::visit([](const auto& v) { return v.monitor; }, s),
              summarize::serialize(s));
}

void DeploymentStore::put_alert(std::uint64_t epoch,
                                const inference::Alert& a,
                                double epoch_end_time) {
  const std::string line = inference::alert_to_json(a, epoch_end_time);
  timed_append(epoch, a.sid, RecordKind::kAlert, as_bytes(line));
}

void DeploymentStore::put_metrics(std::uint64_t epoch,
                                  const telemetry::MetricsSnapshot& delta) {
  const std::vector<std::uint8_t> payload = encode_metrics_delta(delta);
  timed_append(epoch, 0, RecordKind::kMetrics, payload);
}

void DeploymentStore::put_events(
    std::uint64_t epoch, std::span<const observe::FlightEvent> events) {
  const std::vector<std::uint8_t> payload = encode_flight_events(events);
  timed_append(epoch, 0, RecordKind::kEvents, payload);
}

void DeploymentStore::commit_epoch(const EpochMeta& meta) {
  const std::vector<std::uint8_t> payload = encode_epoch_meta(meta);
  if (!profiling()) {
    if (log_.append(meta.epoch, 0, RecordKind::kEpochMeta, payload)) {
      last_committed_ = meta.epoch;
    }
    return;
  }
  // One 'store_append' span carries the epoch's accumulated append cost
  // (its duration is the summed wall time, not this instant).
  {
    telemetry::Span append_span =
        tel_->tracer.span("store_append", trace_ctx_);
    append_span.set_duration_ms(append_ms_);
    append_span.attr("records", static_cast<double>(append_records_));
    append_span.attr("bytes", static_cast<double>(append_bytes_));
  }
  {
    telemetry::Span commit_span =
        tel_->tracer.span("store_commit", trace_ctx_);
    if (log_.append(meta.epoch, 0, RecordKind::kEpochMeta, payload)) {
      last_committed_ = meta.epoch;
    }
  }
  // Shard rolls (fdatasync) since the last commit, including one the
  // commit append itself may have triggered.  The span keeps its pinned
  // name 'index_finalize' (profile stage 14).
  const auto [fin_ms, fins] = log_.take_finalize_stats();
  if (fins > 0) {
    telemetry::Span fin_span =
        tel_->tracer.span("index_finalize", trace_ctx_);
    fin_span.set_duration_ms(fin_ms);
    fin_span.attr("finalizes", static_cast<double>(fins));
  }
  append_ms_ = 0.0;
  append_records_ = 0;
  append_bytes_ = 0;
}

void DeploymentStore::each_committed(
    RecordKind kind, const std::function<bool(const RecordView&)>& fn) const {
  log_.for_each([&](const RecordView& rec) {
    // Epochs are non-decreasing, so the first record past the commit
    // horizon ends the committed prefix.
    if (!visible(rec.epoch)) return false;
    return rec.kind != kind || fn(rec);
  });
}

void DeploymentStore::each_in_epoch(
    std::uint64_t epoch, RecordKind kind,
    const std::function<bool(const RecordView&)>& fn) const {
  if (!visible(epoch)) return;
  log_.for_each_in_epoch(epoch, [&](const RecordView& rec) {
    return rec.kind != kind || fn(rec);
  });
}

void DeploymentStore::each_summary(
    const std::function<bool(std::uint64_t, std::uint32_t,
                             const summarize::MonitorSummary&)>& fn) const {
  each_committed(RecordKind::kSummary, [&](const RecordView& rec) {
    return fn(rec.epoch, rec.stream, summarize::deserialize(rec.payload));
  });
}

void DeploymentStore::each_epoch_meta(
    const std::function<bool(const EpochMeta&)>& fn) const {
  each_committed(RecordKind::kEpochMeta, [&](const RecordView& rec) {
    const auto meta = decode_epoch_meta(rec.epoch, rec.payload);
    return !meta || fn(*meta);
  });
}

void DeploymentStore::each_alert_line(
    const std::function<bool(std::uint64_t, std::uint32_t, std::string_view)>&
        fn) const {
  each_committed(RecordKind::kAlert, [&](const RecordView& rec) {
    return fn(rec.epoch, rec.stream, as_view(rec.payload));
  });
}

namespace {

[[noreturn]] void refuse_ops_payload(const char* what) {
  throw std::runtime_error(std::string("DeploymentStore: ") + what +
                           " payload refused (unknown magic or version — "
                           "written by an incompatible build)");
}

telemetry::MetricsSnapshot metrics_of(const RecordView& rec) {
  auto snap = decode_metrics_delta(rec.payload);
  if (!snap) refuse_ops_payload("kMetrics");
  return std::move(*snap);
}

std::vector<observe::FlightEvent> events_of(const RecordView& rec) {
  auto events = decode_flight_events(rec.payload);
  if (!events) refuse_ops_payload("kEvents");
  return std::move(*events);
}

}  // namespace

void DeploymentStore::each_metrics_delta(
    const std::function<bool(std::uint64_t,
                             const telemetry::MetricsSnapshot&)>& fn) const {
  each_committed(RecordKind::kMetrics, [&](const RecordView& rec) {
    return fn(rec.epoch, metrics_of(rec));
  });
}

void DeploymentStore::each_flight_events(
    const std::function<bool(std::uint64_t,
                             const std::vector<observe::FlightEvent>&)>& fn)
    const {
  each_committed(RecordKind::kEvents, [&](const RecordView& rec) {
    return fn(rec.epoch, events_of(rec));
  });
}

std::optional<EpochMeta> DeploymentStore::epoch_meta_at(
    std::uint64_t epoch) const {
  std::optional<EpochMeta> out;
  each_in_epoch(epoch, RecordKind::kEpochMeta, [&](const RecordView& rec) {
    out = decode_epoch_meta(rec.epoch, rec.payload);
    return false;
  });
  return out;
}

std::optional<telemetry::MetricsSnapshot> DeploymentStore::metrics_delta_at(
    std::uint64_t epoch) const {
  std::optional<telemetry::MetricsSnapshot> out;
  each_in_epoch(epoch, RecordKind::kMetrics, [&](const RecordView& rec) {
    out = metrics_of(rec);
    return false;
  });
  return out;
}

std::vector<observe::FlightEvent> DeploymentStore::events_at(
    std::uint64_t epoch) const {
  std::vector<observe::FlightEvent> out;
  each_in_epoch(epoch, RecordKind::kEvents, [&](const RecordView& rec) {
    out = events_of(rec);
    return false;
  });
  return out;
}

void DeploymentStore::each_alert_line_in_epoch(
    std::uint64_t epoch,
    const std::function<bool(std::uint32_t, std::string_view)>& fn) const {
  each_in_epoch(epoch, RecordKind::kAlert, [&](const RecordView& rec) {
    return fn(rec.stream, as_view(rec.payload));
  });
}

}  // namespace jaal::store
