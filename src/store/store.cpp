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
  out.reserve(40);
  put_u64_le(out, double_bits(m.end_time));
  put_u64_le(out, m.packets);
  put_u64_le(out, double_bits(m.report_fraction));
  put_u64_le(out, double_bits(m.caution));
  // Sharded deployments append their shard count; the one-shard encoding is
  // byte-identical to the pre-sharding format.
  if (m.shard_count != 1) put_u64_le(out, m.shard_count);
  return out;
}

std::optional<EpochMeta> decode_epoch_meta(
    std::uint64_t epoch, std::span<const std::uint8_t> payload) {
  if (payload.size() != 32 && payload.size() != 40) return std::nullopt;
  EpochMeta m;
  m.epoch = epoch;
  m.end_time = bits_double(get_u64_le(payload.data()));
  m.packets = get_u64_le(payload.data() + 8);
  m.report_fraction = bits_double(get_u64_le(payload.data() + 16));
  m.caution = bits_double(get_u64_le(payload.data() + 24));
  if (payload.size() == 40) {
    m.shard_count = get_u64_le(payload.data() + 32);
    if (m.shard_count == 0) return std::nullopt;
  }
  return m;
}

DeploymentStore::DeploymentStore(const StoreConfig& cfg, bool writable,
                                 telemetry::Telemetry* tel)
    : writable_(writable), tel_(tel) {
  summaries_ = std::make_unique<TimeShardLog>(
      TimeShardConfig{cfg.dir, "summaries", cfg.epochs_per_shard}, writable,
      tel);
  alerts_ = std::make_unique<TimeShardLog>(
      TimeShardConfig{cfg.dir, "alerts", cfg.epochs_per_shard}, writable,
      tel);
  provenance_ = std::make_unique<TimeShardLog>(
      TimeShardConfig{cfg.dir, "provenance", cfg.epochs_per_shard}, writable,
      tel);
  ops_ = std::make_unique<TimeShardLog>(
      TimeShardConfig{cfg.dir, "ops", cfg.epochs_per_shard}, writable, tel);
  // The last EpochMeta in the summaries log is the store's commit horizon;
  // finding it walks only the newest shards, back to the first holding one.
  last_committed_ = summaries_->last_epoch(RecordKind::kEpochMeta);
  if (writable) {
    // Drop everything newer than the horizon from all four logs: records
    // of a half-written epoch (summaries appended, meta never landed — or
    // alerts / metrics persisted for an epoch whose meta was torn away)
    // must not resurface as data after a restart.
    (void)summaries_->truncate_after_epoch(last_committed_);
    (void)alerts_->truncate_after_epoch(last_committed_);
    (void)provenance_->truncate_after_epoch(last_committed_);
    (void)ops_->truncate_after_epoch(last_committed_);
  }
}

void DeploymentStore::timed_append(TimeShardLog& log, std::uint64_t epoch,
                                   std::uint32_t stream, RecordKind kind,
                                   std::span<const std::uint8_t> payload) {
  if (!profiling()) {
    (void)log.append(epoch, stream, kind, payload);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  (void)log.append(epoch, stream, kind, payload);
  append_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  ++append_records_;
  append_bytes_ += payload.size();
}

void DeploymentStore::put_summary(std::uint64_t epoch, std::uint32_t monitor,
                                  std::span<const std::uint8_t> bytes) {
  timed_append(*summaries_, epoch, monitor, RecordKind::kSummary, bytes);
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
  timed_append(*alerts_, epoch, a.sid, RecordKind::kAlert, as_bytes(line));
}

void DeploymentStore::put_provenance(std::uint64_t epoch, std::uint32_t sid,
                                     const observe::AlertProvenance& p) {
  const std::string line = observe::to_json(p);
  timed_append(*provenance_, epoch, sid, RecordKind::kProvenance,
               as_bytes(line));
}

void DeploymentStore::put_metrics(std::uint64_t epoch,
                                  const telemetry::MetricsSnapshot& delta) {
  const std::vector<std::uint8_t> payload = encode_metrics_delta(delta);
  timed_append(*ops_, epoch, 0, RecordKind::kMetrics, payload);
}

void DeploymentStore::put_events(
    std::uint64_t epoch, std::span<const observe::FlightEvent> events) {
  const std::vector<std::uint8_t> payload = encode_flight_events(events);
  timed_append(*ops_, epoch, 0, RecordKind::kEvents, payload);
}

void DeploymentStore::commit_epoch(const EpochMeta& meta) {
  const std::vector<std::uint8_t> payload = encode_epoch_meta(meta);
  if (!profiling()) {
    if (summaries_->append(meta.epoch, 0, RecordKind::kEpochMeta, payload)) {
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
    if (summaries_->append(meta.epoch, 0, RecordKind::kEpochMeta, payload)) {
      last_committed_ = meta.epoch;
    }
  }
  // Shard rolls (truncate + msync) since the last commit, including one the
  // commit append itself may have triggered.  The span keeps its pinned
  // name 'index_finalize' (profile stage 14).
  double fin_ms = 0.0;
  std::uint64_t fins = 0;
  for (TimeShardLog* log :
       {summaries_.get(), alerts_.get(), provenance_.get(), ops_.get()}) {
    const auto [ms, n] = log->take_finalize_stats();
    fin_ms += ms;
    fins += n;
  }
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

void DeploymentStore::sync() {
  (void)summaries_->sync();
  (void)alerts_->sync();
  (void)provenance_->sync();
  (void)ops_->sync();
}

bool DeploymentStore::failed() const noexcept {
  return summaries_->failed() || alerts_->failed() ||
         provenance_->failed() || ops_->failed();
}

std::uint64_t DeploymentStore::torn_bytes_truncated() const noexcept {
  return summaries_->torn_bytes_truncated() +
         alerts_->torn_bytes_truncated() +
         provenance_->torn_bytes_truncated() + ops_->torn_bytes_truncated();
}

void DeploymentStore::each_summary(
    const std::function<bool(std::uint64_t, std::uint32_t,
                             const summarize::MonitorSummary&)>& fn) const {
  summaries_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kSummary) return true;
    // Epochs are non-decreasing, so the first record past the commit
    // horizon ends the committed prefix.
    if (!visible(rec.epoch)) return false;
    return fn(rec.epoch, rec.stream, summarize::deserialize(rec.payload));
  });
}

void DeploymentStore::each_epoch_meta(
    const std::function<bool(const EpochMeta&)>& fn) const {
  summaries_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kEpochMeta) return true;
    const auto meta = decode_epoch_meta(rec.epoch, rec.payload);
    return !meta || fn(*meta);
  });
}

void DeploymentStore::each_alert_line(
    const std::function<bool(std::uint64_t, std::uint32_t, std::string_view)>&
        fn) const {
  alerts_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kAlert) return true;
    if (!visible(rec.epoch)) return false;
    return fn(rec.epoch, rec.stream, as_view(rec.payload));
  });
}

void DeploymentStore::each_provenance_line(
    const std::function<bool(std::uint64_t, std::uint32_t, std::string_view)>&
        fn) const {
  provenance_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kProvenance) return true;
    if (!visible(rec.epoch)) return false;
    return fn(rec.epoch, rec.stream, as_view(rec.payload));
  });
}

namespace {

[[noreturn]] void refuse_ops_payload(const char* what) {
  throw std::runtime_error(std::string("DeploymentStore: ") + what +
                           " payload refused (unknown magic or version — "
                           "written by an incompatible build)");
}

}  // namespace

void DeploymentStore::each_metrics_delta(
    const std::function<bool(std::uint64_t,
                             const telemetry::MetricsSnapshot&)>& fn) const {
  ops_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kMetrics) return true;
    if (!visible(rec.epoch)) return false;
    const auto snap = decode_metrics_delta(rec.payload);
    if (!snap) refuse_ops_payload("kMetrics");
    return fn(rec.epoch, *snap);
  });
}

void DeploymentStore::each_flight_events(
    const std::function<bool(std::uint64_t,
                             const std::vector<observe::FlightEvent>&)>& fn)
    const {
  ops_->for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kEvents) return true;
    if (!visible(rec.epoch)) return false;
    const auto events = decode_flight_events(rec.payload);
    if (!events) refuse_ops_payload("kEvents");
    return fn(rec.epoch, *events);
  });
}

std::optional<EpochMeta> DeploymentStore::epoch_meta_at(
    std::uint64_t epoch) const {
  if (!visible(epoch)) return std::nullopt;
  std::optional<EpochMeta> out;
  summaries_->for_each_in_epoch(epoch, [&](const RecordView& rec) {
    if (rec.kind != RecordKind::kEpochMeta) return true;
    out = decode_epoch_meta(rec.epoch, rec.payload);
    return false;
  });
  return out;
}

std::optional<telemetry::MetricsSnapshot> DeploymentStore::metrics_delta_at(
    std::uint64_t epoch) const {
  if (!visible(epoch)) return std::nullopt;
  std::optional<telemetry::MetricsSnapshot> out;
  bool refused = false;
  ops_->for_each_in_epoch(epoch, [&](const RecordView& rec) {
    if (rec.kind != RecordKind::kMetrics) return true;
    out = decode_metrics_delta(rec.payload);
    refused = !out.has_value();
    return false;
  });
  if (refused) refuse_ops_payload("kMetrics");
  return out;
}

std::vector<observe::FlightEvent> DeploymentStore::events_at(
    std::uint64_t epoch) const {
  std::vector<observe::FlightEvent> out;
  if (!visible(epoch)) return out;
  ops_->for_each_in_epoch(epoch, [&](const RecordView& rec) {
    if (rec.kind != RecordKind::kEvents) return true;
    auto events = decode_flight_events(rec.payload);
    if (!events) refuse_ops_payload("kEvents");
    out = std::move(*events);
    return false;
  });
  return out;
}

void DeploymentStore::each_alert_line_in_epoch(
    std::uint64_t epoch,
    const std::function<bool(std::uint32_t, std::string_view)>& fn) const {
  if (!visible(epoch)) return;
  alerts_->for_each_in_epoch(epoch, [&](const RecordView& rec) {
    if (rec.kind != RecordKind::kAlert) return true;
    return fn(rec.stream, as_view(rec.payload));
  });
}

}  // namespace jaal::store
