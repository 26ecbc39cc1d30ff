// Typed persistence for one deployment: four time-sharded record logs
// under one directory —
//   summaries.NNNNNN.jstore   MonitorSummary payloads (float64 wire format)
//                             plus one EpochMeta commit record per epoch;
//   alerts.NNNNNN.jstore      alert JSON lines (inference::alert_to_json);
//   provenance.NNNNNN.jstore  provenance JSON lines (observe::to_json);
//   ops.NNNNNN.jstore         per-epoch operational records: one kMetrics
//                             MetricsSnapshot delta and one kEvents
//                             flight-event batch (store/metrics_codec) —
//                             the telemetry timeline jaal_doctor --store
//                             replays offline.  Absent from stores written
//                             before this stream existed; those stay
//                             readable.
//
// Crash-safety protocol: everything an epoch produced is appended first,
// then one EpochMeta record lands in the summaries log — that record IS the
// epoch's commit point.  A writer opening the store truncates torn shard
// tails (flat_timeshard walk-on-open) and then drops every record newer
// than the last committed EpochMeta from all four logs (an uncommitted
// epoch's kMetrics/kEvents roll back with it), so a half-written epoch can
// never resurface.  last_committed_epoch() tells a restarted deployment
// where to resume.
//
// Error policy: construction throws std::invalid_argument on an unusable
// directory or incompatible shards; the per-epoch append path never throws —
// an I/O failure flips failed() and the store goes inert (the deployment
// keeps running, it just stops persisting).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "inference/engine.hpp"
#include "observe/flight_recorder.hpp"
#include "observe/provenance.hpp"
#include "store/flat_timeshard.hpp"
#include "store/metrics_codec.hpp"
#include "summarize/summary.hpp"

namespace jaal::store {

struct StoreConfig {
  std::string dir;  ///< Directory for the shard files (created if absent).
  std::uint64_t epochs_per_shard = 64;
};

/// The per-epoch commit record: enough deployment context for a replayer to
/// reproduce the engine's per-epoch state (tau_c volume scale, degraded-mode
/// report fraction, drift caution) exactly as the live run saw it.
struct EpochMeta {
  std::uint64_t epoch = 0;
  double end_time = 0.0;         ///< Simulated epoch close time.
  std::uint64_t packets = 0;     ///< Packets ingested this epoch.
  double report_fraction = 1.0;  ///< Delivered / expected summaries.
  double caution = 0.0;          ///< Drift caution at decision time.
  /// Inference-tier shard count the writing deployment ran with: always 1
  /// now, but stores written by sharded builds carry larger values and stay
  /// readable.  Encoded only when != 1 (the original 32-byte payload).
  std::uint64_t shard_count = 1;
};

/// Little-endian payload (epoch rides in the record header): 32 bytes, plus
/// a trailing shard-count u64 only when shard_count != 1.
[[nodiscard]] std::vector<std::uint8_t> encode_epoch_meta(const EpochMeta& m);
/// nullopt on a malformed payload.
[[nodiscard]] std::optional<EpochMeta> decode_epoch_meta(
    std::uint64_t epoch, std::span<const std::uint8_t> payload);

class DeploymentStore {
 public:
  /// Writer mode recovers the store (torn tails, uncommitted epochs) and
  /// appends; reader mode only scans.  Throws std::invalid_argument on an
  /// unusable directory or shards from an incompatible format version.
  DeploymentStore(const StoreConfig& cfg, bool writable,
                  telemetry::Telemetry* tel = nullptr);

  /// Epoch of the last EpochMeta commit record; nullopt for a fresh store.
  /// A restarted deployment resumes at *last_committed_epoch() + 1.
  [[nodiscard]] std::optional<std::uint64_t> last_committed_epoch()
      const noexcept {
    return last_committed_;
  }

  // ---- writer path (per-epoch hot path: never throws) ----

  /// Attaches the current epoch's trace context.  While set (and telemetry
  /// was given at construction), the writer path accumulates per-append
  /// wall time and commit_epoch records 'store_append' / 'store_commit' /
  /// 'index_finalize' spans under it for the critical-path profiler.  A
  /// default-constructed context (span_id == 0) disables profiling.
  void set_trace_context(const telemetry::SpanContext& ctx) noexcept {
    trace_ctx_ = ctx;
  }

  /// Persists one aggregated summary, full-fidelity (float64), in
  /// aggregation order — replay reproduces the live aggregate bit-for-bit.
  void put_summary(std::uint64_t epoch, const summarize::MonitorSummary& s);
  void put_alert(std::uint64_t epoch, const inference::Alert& a,
                 double epoch_end_time);
  void put_provenance(std::uint64_t epoch, std::uint32_t sid,
                      const observe::AlertProvenance& p);
  /// Persists one epoch's metrics delta (normally registry snapshot diffed
  /// against the previous epoch's — see MetricsSnapshot::diff).  Call
  /// before commit_epoch so the record rides under the epoch's commit.
  void put_metrics(std::uint64_t epoch,
                   const telemetry::MetricsSnapshot& delta);
  /// Persists the flight events raised while closing this epoch.
  void put_events(std::uint64_t epoch,
                  std::span<const observe::FlightEvent> events);
  /// Commits the epoch: after this record is appended, the epoch is
  /// durable-on-truncate (walk-on-open keeps everything up to it).
  void commit_epoch(const EpochMeta& meta);
  /// msync all four tail shards (shard rolls and destruction sync
  /// automatically; call this for an explicit durability point).
  void sync();

  /// True after any log hit an unrecoverable I/O failure (store inert).
  [[nodiscard]] bool failed() const noexcept;
  /// Bytes removed by torn-tail recovery at open, across the four logs.
  [[nodiscard]] std::uint64_t torn_bytes_truncated() const noexcept;

  // ---- read path ----
  //
  // In reader mode every iterator surfaces only the committed prefix
  // (records with epoch <= last_committed_epoch()) — exactly what a writer
  // open's recovery would keep, so readers and writers never disagree about
  // the store's contents after a crash.  A writer additionally sees its own
  // not-yet-committed appends for the in-flight epoch.

  /// Every stored summary in append (= aggregation) order.  Return false to
  /// stop.  Throws std::runtime_error only on a payload that fails
  /// summarize::deserialize (CRC-valid but foreign — practically a
  /// programming error).
  void each_summary(
      const std::function<bool(std::uint64_t epoch, std::uint32_t monitor,
                               const summarize::MonitorSummary&)>& fn) const;
  /// Every committed EpochMeta, ascending.
  void each_epoch_meta(
      const std::function<bool(const EpochMeta&)>& fn) const;
  /// Alert JSON lines in append order (view aliases the shard mapping).
  void each_alert_line(
      const std::function<bool(std::uint64_t epoch, std::uint32_t sid,
                               std::string_view line)>& fn) const;
  /// Provenance JSON lines in append order.
  void each_provenance_line(
      const std::function<bool(std::uint64_t epoch, std::uint32_t sid,
                               std::string_view line)>& fn) const;
  /// Every committed per-epoch metrics delta, ascending by epoch.  Throws
  /// std::runtime_error on a CRC-valid payload the codec refuses (unknown
  /// magic/version: the store was written by an incompatible build).
  void each_metrics_delta(
      const std::function<bool(std::uint64_t epoch,
                               const telemetry::MetricsSnapshot&)>& fn)
      const;
  /// Every committed per-epoch flight-event batch, ascending by epoch.
  /// Same refusal policy as each_metrics_delta.
  void each_flight_events(
      const std::function<bool(std::uint64_t epoch,
                               const std::vector<observe::FlightEvent>&)>&
          fn) const;

  // ---- point queries (secondary epoch index; see TimeShardLog
  //      for_each_in_epoch for the index/fallback semantics) ----

  /// The commit record of one epoch; nullopt when the epoch is not
  /// committed.
  [[nodiscard]] std::optional<EpochMeta> epoch_meta_at(
      std::uint64_t epoch) const;
  /// The metrics delta of one epoch; nullopt when absent.  Throws like
  /// each_metrics_delta on a refused payload.
  [[nodiscard]] std::optional<telemetry::MetricsSnapshot> metrics_delta_at(
      std::uint64_t epoch) const;
  /// The flight events of one epoch (empty when absent).
  [[nodiscard]] std::vector<observe::FlightEvent> events_at(
      std::uint64_t epoch) const;
  /// Alert JSON lines of one epoch.
  void each_alert_line_in_epoch(
      std::uint64_t epoch,
      const std::function<bool(std::uint32_t sid, std::string_view line)>&
          fn) const;

  /// Underlying logs, for tests and tooling.
  [[nodiscard]] const TimeShardLog& summaries_log() const noexcept {
    return *summaries_;
  }
  [[nodiscard]] const TimeShardLog& alerts_log() const noexcept {
    return *alerts_;
  }
  [[nodiscard]] const TimeShardLog& provenance_log() const noexcept {
    return *provenance_;
  }
  [[nodiscard]] const TimeShardLog& ops_log() const noexcept {
    return *ops_;
  }

 private:
  /// True for committed records; readers stop at the commit horizon.
  [[nodiscard]] bool visible(std::uint64_t epoch) const noexcept {
    return writable_ || (last_committed_ && epoch <= *last_committed_);
  }

  /// True while commit_epoch should emit profiling spans.
  [[nodiscard]] bool profiling() const noexcept {
    return tel_ != nullptr && trace_ctx_.span_id != 0;
  }
  /// Appends through `log`, accumulating wall time when profiling.
  void timed_append(TimeShardLog& log, std::uint64_t epoch,
                    std::uint32_t stream, RecordKind kind,
                    std::span<const std::uint8_t> payload);

  std::unique_ptr<TimeShardLog> summaries_;
  std::unique_ptr<TimeShardLog> alerts_;
  std::unique_ptr<TimeShardLog> provenance_;
  std::unique_ptr<TimeShardLog> ops_;
  std::optional<std::uint64_t> last_committed_;
  bool writable_ = false;
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::SpanContext trace_ctx_{};
  double append_ms_ = 0.0;  ///< Accumulated wall time, reset per commit.
  std::uint64_t append_records_ = 0;
  std::uint64_t append_bytes_ = 0;
};

}  // namespace jaal::store
