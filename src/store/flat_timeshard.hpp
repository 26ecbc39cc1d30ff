// Time-sharded append-only record log: `<dir>/<prefix>.%06llu.jstore`, one
// shard per contiguous epoch range (shard index = epoch / epochs_per_shard).
//
// Each shard starts with a 64-byte versioned header (magic, format version,
// record schema hash, the shard's first epoch and the log's shard width);
// CRC-framed records follow (flat_record.hpp).  The writer appends the tail
// shard with pwritev on a plain file descriptor — one frame header plus
// payload per call — so every file is exactly its header and records; walks
// map shards read-only (flat_mmap.hpp).  Writes are crash-safe by
// construction:
//   * a shard is fdatasync'd when the log rolls past it (and again at
//     destruction), so finalized shards are durable;
//   * the tail shard is recovered on open by walking its frames — the first
//     frame that fails validation marks the torn tail, which is truncated
//     (an interrupted append can never resurface as data);
//   * a tail shard whose header *magic* never fully landed (crash during
//     roll) holds no committed data: writers delete it, readers skip it;
//   * a shard whose magic is intact but whose header disagrees with this
//     build or config (format version, schema hash, epoch range / shard
//     width) is incompatible — construction throws for reader and writer
//     alike, so committed data is never mistaken for a torn roll.
// The walk, not any length field, is authoritative for what exists.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "store/flat_mmap.hpp"
#include "store/flat_record.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::store {

/// On-disk shard header layout (little-endian, 64 bytes):
///   [0,8)   magic "JSTORE1\0"
///   [8,12)  format version (kShardFormatVersion)
///   [12,16) record schema hash (kRecordSchemaHash)
///   [16,24) first epoch covered by this shard
///   [24,32) epochs per shard (the log's shard width)
///   [32,64) reserved, zero
inline constexpr std::size_t kShardHeaderBytes = 64;
/// 2 since the store keeps one commit-ordered log per deployment; version 1
/// stores (four per-stream logs) are refused by the header check.
inline constexpr std::uint32_t kShardFormatVersion = 2;
inline constexpr char kShardMagic[8] = {'J', 'S', 'T', 'O', 'R', 'E',
                                        '1', '\0'};

struct TimeShardConfig {
  std::string dir;     ///< Directory holding the shards (created if absent).
  std::string prefix;  ///< Shard file stem, e.g. "summaries".
  std::uint64_t epochs_per_shard = 64;
};

class TimeShardLog {
 public:
  /// Opens (writer: creates/recovers; reader: scans) the log.  Throws
  /// std::invalid_argument on a bad config or an unusable directory /
  /// incompatible shard header (construction-time misconfiguration); after
  /// construction nothing throws — I/O failures flip failed() and make the
  /// writer inert.
  TimeShardLog(TimeShardConfig cfg, bool writable,
               telemetry::Telemetry* tel = nullptr);
  ~TimeShardLog();

  TimeShardLog(const TimeShardLog&) = delete;
  TimeShardLog& operator=(const TimeShardLog&) = delete;

  /// Appends one record.  Epochs must be non-decreasing across appends.
  /// Returns false (and goes inert) on I/O failure or ordering violation.
  bool append(std::uint64_t epoch, std::uint32_t stream, RecordKind kind,
              std::span<const std::uint8_t> payload);

  /// fdatasync the tail shard.
  bool sync();

  /// sync() timed into take_finalize_stats (what a roll does); called by
  /// the destructor.
  void finalize();

  /// Removes every record with epoch > `epoch` (writer only): shards
  /// entirely beyond it are deleted, the boundary shard is truncated at the
  /// first record past it.  nullopt removes every record.  Appending then
  /// resumes from the cut.
  bool truncate_after_epoch(std::optional<std::uint64_t> epoch);

  /// Iterates every valid record across all shards in append order,
  /// zero-copy: RecordView::payload aliases the shard mapping, which stays
  /// mapped until the walk leaves that shard, so a caller may hold payload
  /// spans across callbacks only while the records come from the same
  /// shard (StoreReplayer holds an epoch's).  Return false from the
  /// callback to stop.  Iteration of a shard ends at its first invalid
  /// frame or at its first record of an epoch outside the shard's range
  /// (torn-tail rule), so every record of one epoch comes from one shard.
  void for_each(const std::function<bool(const RecordView&)>& fn) const;

  /// Point query: every valid record of exactly `epoch`, in append order.
  /// Walks the one shard that can hold the epoch and stops at the first
  /// record past it, so it visits at most one shard's bytes
  /// (jaal_store_scan_bytes_total counts them).
  void for_each_in_epoch(
      std::uint64_t epoch,
      const std::function<bool(const RecordView&)>& fn) const;

  /// Epoch of the last valid record (of `kind`, when given), nullopt when
  /// there is none.  Epochs never decrease, so this walks shards
  /// newest-first and stops at the first shard holding such a record.
  [[nodiscard]] std::optional<std::uint64_t> last_epoch(
      std::optional<RecordKind> kind = std::nullopt) const;

  /// Torn record bytes removed by recovery when the writer opened (counted
  /// to the last non-zero byte: zeros past the data, which a crash can leave
  /// in a file extended before its bytes landed, are not torn data).
  [[nodiscard]] std::uint64_t torn_bytes_truncated() const noexcept {
    return torn_bytes_;
  }

  /// True after an unrecoverable I/O failure; the writer drops appends.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  [[nodiscard]] std::uint64_t records_appended() const noexcept {
    return records_appended_;
  }

  /// Wall time spent in finalize() (shard roll fdatasync)
  /// since the last take, with the number of finalizes — consumed by the
  /// store's per-epoch 'index_finalize' profiling span.  Resets on read.
  [[nodiscard]] std::pair<double, std::uint64_t> take_finalize_stats()
      noexcept {
    const std::pair<double, std::uint64_t> out{finalize_ms_accum_,
                                               finalizes_};
    finalize_ms_accum_ = 0.0;
    finalizes_ = 0;
    return out;
  }
  [[nodiscard]] std::vector<std::string> shard_paths() const;
  [[nodiscard]] const TimeShardConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] std::string shard_path(std::uint64_t index) const;
  /// Validates a mapped shard's header against this log's config.
  [[nodiscard]] bool header_ok(const FlatMmap& map,
                               std::uint64_t index) const noexcept;
  [[nodiscard]] bool open_tail_for_write();
  /// Opens shard `index` as the append tail, cut to `size` bytes.
  [[nodiscard]] bool open_tail(std::uint64_t index, std::size_t size);
  void close_tail() noexcept;
  [[nodiscard]] bool roll_to(std::uint64_t index);
  /// next_record, ending the walk of shard `index` (torn-tail rule) at a
  /// record whose epoch lies outside the shard's range: the writer never
  /// appends one, so its header is damaged.
  [[nodiscard]] std::optional<RecordView> next_in_shard(
      std::span<const std::uint8_t> bytes, std::size_t& offset,
      std::uint64_t index) const noexcept;
  /// Walks shard `index`, counting scanned bytes; false when `fn` stopped
  /// or the shard is unreadable.
  bool walk_shard(std::uint64_t index,
                  const std::function<bool(const RecordView&)>& fn) const;
  void fail() noexcept { failed_ = true; }

  TimeShardConfig cfg_;
  bool writable_ = false;
  bool failed_ = false;
  std::vector<std::uint64_t> shard_indices_;  ///< Sorted, ascending.
  int tail_fd_ = -1;              ///< Append descriptor of the last shard.
  std::size_t tail_used_ = 0;     ///< Its size: the next append's offset.
  std::uint64_t tail_index_ = 0;  ///< Shard index of tail_fd_ (when open).
  std::uint64_t torn_bytes_ = 0;
  std::uint64_t records_appended_ = 0;
  double finalize_ms_accum_ = 0.0;
  std::uint64_t finalizes_ = 0;
  std::optional<std::uint64_t> last_append_epoch_;

  telemetry::Counter* tel_bytes_ = nullptr;
  telemetry::Counter* tel_records_ = nullptr;
  telemetry::Counter* tel_rolls_ = nullptr;
  telemetry::Counter* tel_torn_bytes_ = nullptr;
  telemetry::Counter* tel_scan_bytes_ = nullptr;
  telemetry::Histogram* tel_sync_ms_ = nullptr;
};

}  // namespace jaal::store
