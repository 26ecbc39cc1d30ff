// Typed persistence for one deployment: one time-sharded record log,
// `summaries.NNNNNN.jstore` under one directory (the stem is older than the
// single log; tools that count replay-scan bytes by it keep working).  Each
// epoch appends, in order:
//   kSummary     summaries as monitors ship them (summarize::serialize,
//                float32), in aggregation order;
//   kAlert       alert JSON lines (inference::alert_to_json);
//   kEvents      the flight events raised closing the epoch and the
//   kMetrics     registry's MetricsSnapshot delta (store/metrics_codec) —
//                the telemetry timeline jaal_doctor --store replays;
//   kEpochMeta   the commit record, last.
// Alert provenance is not stored: it stays on the live inference::Alert.
// kProvenance records written by older builds are skipped by every reader,
// like any record kind a reader did not ask for.
//
// Crash-safety protocol: the EpochMeta record IS the epoch's commit point.
// A writer opening the store truncates the torn tail (flat_timeshard
// walk-on-open), finds the last EpochMeta and drops every record after it,
// so a half-written epoch can never resurface.  last_committed_epoch()
// tells a restarted deployment where to resume.  Stores of the older
// four-log layout (shard format version 1) are refused at open.
//
// Error policy: construction throws std::invalid_argument on an unusable
// directory or incompatible shards; the per-epoch append path never throws —
// an I/O failure flips failed() and the store goes inert (the deployment
// keeps running, it just stops persisting).
#pragma once

#include <cstdint>
#include <functional>
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
  /// Ignored: neither encoded nor decoded.  It stays, like
  /// shard::ShardingConfig, only because the end-to-end benchmark
  /// (perfbench/) still assigns it, and goes with the next change there.
  std::uint64_t shard_count = 1;
};

/// Little-endian 32-byte payload (epoch rides in the record header).
[[nodiscard]] std::vector<std::uint8_t> encode_epoch_meta(const EpochMeta& m);
/// nullopt on a payload of any other size.
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

  /// Persists one aggregated summary, in aggregation order, as the
  /// serialized bytes the tier aggregated — replay parses the same bytes,
  /// so it reproduces the live aggregate bit-for-bit.
  void put_summary(std::uint64_t epoch, std::uint32_t monitor,
                   std::span<const std::uint8_t> bytes);
  /// put_summary(epoch, monitor, summarize::serialize(s)).
  void put_summary(std::uint64_t epoch, const summarize::MonitorSummary& s);
  void put_alert(std::uint64_t epoch, const inference::Alert& a,
                 double epoch_end_time);
  /// A no-op: the store keeps no provenance.  It stays, like
  /// EpochMeta::shard_count, only because the end-to-end benchmark
  /// (perfbench/) still calls it, and goes with the next change there.
  void put_provenance(std::uint64_t, std::uint32_t,
                      const observe::AlertProvenance&) {}
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
  /// fdatasync the tail shard (shard rolls and destruction sync
  /// automatically; call this for an explicit durability point).
  void sync() { (void)log_.sync(); }

  /// True after the log hit an unrecoverable I/O failure (store inert).
  [[nodiscard]] bool failed() const noexcept { return log_.failed(); }
  /// Bytes removed by torn-tail recovery at open.
  [[nodiscard]] std::uint64_t torn_bytes_truncated() const noexcept {
    return log_.torn_bytes_truncated();
  }

  // ---- read path ----
  //
  // In reader mode every iterator surfaces only the committed prefix
  // (records with epoch <= last_committed_epoch()) — exactly what a writer
  // open's recovery would keep, so readers and writers never disagree about
  // the store's contents after a crash.  A writer additionally sees its own
  // not-yet-committed appends for the in-flight epoch.

  /// Every stored summary in append (= aggregation) order.  Return false to
  /// stop.  Throws std::runtime_error only on a payload that fails
  /// summarize::deserialize: CRC-valid but foreign, or a float64 (version
  /// 2) summary of a store written by an older build.
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

  // ---- point queries (each walks the one shard holding the epoch; see
  //      TimeShardLog::for_each_in_epoch) ----

  /// The commit record of one epoch; nullopt when the epoch is not
  /// committed.
  [[nodiscard]] std::optional<EpochMeta> epoch_meta_at(
      std::uint64_t epoch) const;
  /// The metrics delta of one epoch; nullopt when absent.  Throws like
  /// each_metrics_delta on a refused payload.
  [[nodiscard]] std::optional<telemetry::MetricsSnapshot> metrics_delta_at(
      std::uint64_t epoch) const;
  /// The flight events of one epoch (empty when absent).  Throws like
  /// each_flight_events on a refused payload.
  [[nodiscard]] std::vector<observe::FlightEvent> events_at(
      std::uint64_t epoch) const;
  /// Alert JSON lines of one epoch.
  void each_alert_line_in_epoch(
      std::uint64_t epoch,
      const std::function<bool(std::uint32_t sid, std::string_view line)>&
          fn) const;

  /// The underlying log (every record kind), for replay, tests and
  /// tooling.
  [[nodiscard]] const TimeShardLog& log() const noexcept { return log_; }

 private:
  /// True for committed records; readers stop at the commit horizon.
  [[nodiscard]] bool visible(std::uint64_t epoch) const noexcept {
    return writable_ || (last_committed_ && epoch <= *last_committed_);
  }

  /// True while commit_epoch should emit profiling spans.
  [[nodiscard]] bool profiling() const noexcept {
    return tel_ != nullptr && trace_ctx_.span_id != 0;
  }
  /// Appends one record, accumulating wall time when profiling.
  void timed_append(std::uint64_t epoch, std::uint32_t stream,
                    RecordKind kind, std::span<const std::uint8_t> payload);
  /// The committed records of `kind` in append order; `fn` returns false
  /// to stop.
  void each_committed(RecordKind kind,
                      const std::function<bool(const RecordView&)>& fn) const;
  /// The committed records of `kind` in `epoch` (one shard's walk).
  void each_in_epoch(std::uint64_t epoch, RecordKind kind,
                     const std::function<bool(const RecordView&)>& fn) const;

  TimeShardLog log_;
  std::optional<std::uint64_t> last_committed_;
  bool writable_ = false;
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::SpanContext trace_ctx_{};
  double append_ms_ = 0.0;  ///< Accumulated wall time, reset per commit.
  std::uint64_t append_records_ = 0;
  std::uint64_t append_bytes_ = 0;
};

}  // namespace jaal::store
