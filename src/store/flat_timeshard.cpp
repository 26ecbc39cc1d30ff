#include "store/flat_timeshard.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace jaal::store {
namespace {

namespace fs = std::filesystem;

void put_u32_at(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64_at(std::uint8_t* out, std::uint64_t v) noexcept {
  put_u32_at(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32_at(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32_at(const std::uint8_t* in) noexcept {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

std::uint64_t get_u64_at(const std::uint8_t* in) noexcept {
  return std::uint64_t{get_u32_at(in)} |
         (std::uint64_t{get_u32_at(in + 4)} << 32);
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// True when the shard's magic fully landed on disk.  A shard whose magic
/// is intact was completely rolled by *some* build — its header fields are
/// authoritative, never torn noise.
bool magic_landed(const FlatMmap& map) noexcept {
  return map.size() >= kShardHeaderBytes &&
         std::memcmp(map.data(), kShardMagic, sizeof(kShardMagic)) == 0;
}

/// Offset just past the last non-zero byte at or after `from`: the extent
/// of bytes actually written.  A crash can leave a file extended before its
/// bytes landed, so trailing zeros are not torn record data.
std::size_t data_extent(const FlatMmap& map, std::size_t from) noexcept {
  std::size_t end = map.size();
  const std::uint8_t* d = map.data();
  while (end > from && d[end - 1] == 0) --end;
  return end;
}

}  // namespace

TimeShardLog::TimeShardLog(TimeShardConfig cfg, bool writable,
                           telemetry::Telemetry* tel)
    : cfg_(std::move(cfg)), writable_(writable) {
  if (cfg_.dir.empty() || cfg_.prefix.empty() ||
      cfg_.epochs_per_shard == 0) {
    throw std::invalid_argument(
        "TimeShardLog: dir, prefix and epochs_per_shard are required");
  }
  if (tel != nullptr) {
    auto& m = tel->metrics;
    tel_bytes_ = &m.counter("jaal_store_bytes_written_total");
    tel_records_ = &m.counter("jaal_store_records_total");
    tel_rolls_ = &m.counter("jaal_store_shards_rolled_total");
    tel_torn_bytes_ = &m.counter("jaal_store_torn_bytes_truncated_total");
    tel_scan_bytes_ = &m.counter("jaal_store_scan_bytes_total");
    tel_sync_ms_ = &m.histogram("jaal_store_msync_ms");
  }
  std::error_code ec;
  if (writable_) fs::create_directories(cfg_.dir, ec);
  if (!fs::is_directory(cfg_.dir, ec)) {
    throw std::invalid_argument("TimeShardLog: unusable store directory " +
                                cfg_.dir);
  }
  // Discover existing shards: <prefix>.<digits>.jstore.
  const std::string head = cfg_.prefix + ".";
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= head.size() + 7 || name.compare(0, head.size(), head) != 0 ||
        name.compare(name.size() - 7, 7, ".jstore") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(head.size(), name.size() - head.size() - 7);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    shard_indices_.push_back(std::stoull(digits));
  }
  std::sort(shard_indices_.begin(), shard_indices_.end());
  // Validate every discovered header up front, reader and writer alike.  A
  // shard whose magic is intact but whose header disagrees with this build
  // or config (format version, schema hash, epoch range / shard width) is
  // incompatible: refuse the whole store loudly rather than ever mistaking
  // committed data for a torn roll.  Only a *tail* shard whose magic never
  // landed is a recoverable crash-during-roll.
  for (std::size_t i = 0; i < shard_indices_.size();) {
    const std::uint64_t idx = shard_indices_[i];
    FlatMmap map;
    if (!map.open(shard_path(idx))) {
      throw std::invalid_argument("TimeShardLog: cannot open shard " +
                                  shard_path(idx));
    }
    if (header_ok(map, idx)) {
      ++i;
      continue;
    }
    const bool tail = i + 1 == shard_indices_.size();
    if (magic_landed(map) || !tail) {
      throw std::invalid_argument(
          "TimeShardLog: incompatible shard header (format/schema/shard "
          "width mismatch) in " +
          shard_path(idx));
    }
    if (writable_) {
      ++i;  // open_tail_for_write deletes the torn roll
    } else {
      shard_indices_.pop_back();  // readers just skip it
    }
  }
  if (writable_ && !open_tail_for_write()) {
    throw std::invalid_argument(
        "TimeShardLog: cannot recover tail shard under " + cfg_.dir);
  }
  if (torn_bytes_ > 0 && tel_torn_bytes_ != nullptr) {
    tel_torn_bytes_->add(torn_bytes_);
  }
}

TimeShardLog::~TimeShardLog() {
  finalize();
  close_tail();
}

std::string TimeShardLog::shard_path(std::uint64_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), ".%06llu.jstore",
                static_cast<unsigned long long>(index));
  return cfg_.dir + "/" + cfg_.prefix + name;
}

bool TimeShardLog::header_ok(const FlatMmap& map,
                             std::uint64_t index) const noexcept {
  if (map.size() < kShardHeaderBytes) return false;
  const std::uint8_t* h = map.data();
  return std::memcmp(h, kShardMagic, sizeof(kShardMagic)) == 0 &&
         get_u32_at(h + 8) == kShardFormatVersion &&
         get_u32_at(h + 12) == kRecordSchemaHash &&
         get_u64_at(h + 16) == index * cfg_.epochs_per_shard &&
         get_u64_at(h + 24) == cfg_.epochs_per_shard;
}

bool TimeShardLog::open_tail_for_write() {
  while (!shard_indices_.empty()) {
    const std::uint64_t idx = shard_indices_.back();
    const std::string path = shard_path(idx);
    FlatMmap map;
    if (!map.open(path)) return false;
    if (!header_ok(map, idx)) {
      // Crash during a shard roll: the magic never fully landed (the
      // constructor refused every other header mismatch).  The file holds
      // no committed data — delete it and fall back to the previous shard.
      torn_bytes_ += data_extent(map, 0);
      map.close();
      std::error_code ec;
      fs::remove(path, ec);
      shard_indices_.pop_back();
      continue;
    }
    // One walk finds the torn tail and resumes the epoch-ordering guard.
    const std::span<const std::uint8_t> bytes(map.data(), map.size());
    std::size_t end = kShardHeaderBytes;
    while (auto rec = next_in_shard(bytes, end, idx)) {
      last_append_epoch_ = rec->epoch;
    }
    torn_bytes_ += data_extent(map, end) - end;
    return open_tail(idx, end);
  }
  return true;  // empty log; the first append creates shard 0+.
}

bool TimeShardLog::open_tail(std::uint64_t index, std::size_t size) {
  close_tail();
  tail_fd_ = ::open(shard_path(index).c_str(), O_RDWR | O_CLOEXEC);
  if (tail_fd_ < 0 || ::ftruncate(tail_fd_, static_cast<off_t>(size)) != 0) {
    close_tail();
    return false;
  }
  tail_used_ = size;
  tail_index_ = index;
  return true;
}

void TimeShardLog::close_tail() noexcept {
  if (tail_fd_ >= 0) ::close(tail_fd_);
  tail_fd_ = -1;
  tail_used_ = 0;
}

bool TimeShardLog::roll_to(std::uint64_t index) {
  if (tail_fd_ >= 0) {
    finalize();
    close_tail();
    if (tel_rolls_ != nullptr) tel_rolls_->add(1);
  }
  tail_fd_ = ::open(shard_path(index).c_str(),
                    O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tail_fd_ < 0) return false;
  std::uint8_t h[kShardHeaderBytes] = {};
  std::memcpy(h, kShardMagic, sizeof(kShardMagic));
  put_u32_at(h + 8, kShardFormatVersion);
  put_u32_at(h + 12, kRecordSchemaHash);
  put_u64_at(h + 16, index * cfg_.epochs_per_shard);
  put_u64_at(h + 24, cfg_.epochs_per_shard);
  tail_index_ = index;
  shard_indices_.push_back(index);
  if (::pwrite(tail_fd_, h, sizeof(h), 0) !=
      static_cast<ssize_t>(sizeof(h))) {
    return false;
  }
  tail_used_ = kShardHeaderBytes;
  return true;
}

bool TimeShardLog::append(std::uint64_t epoch, std::uint32_t stream,
                          RecordKind kind,
                          std::span<const std::uint8_t> payload) {
  if (failed_ || !writable_ || payload.size() > kMaxRecordPayload) {
    return false;
  }
  if (last_append_epoch_ && epoch < *last_append_epoch_) {
    fail();
    return false;
  }
  const std::uint64_t index = epoch / cfg_.epochs_per_shard;
  if (tail_fd_ < 0 || index > tail_index_) {
    if (!roll_to(index)) {
      fail();
      return false;
    }
  } else if (index < tail_index_) {
    fail();
    return false;
  }
  RecordHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.crc32 = crc32(payload);
  h.epoch = epoch;
  h.stream = stream;
  h.kind = static_cast<std::uint32_t>(kind);
  std::uint8_t header[kRecordHeaderBytes];
  encode_record_header(h, header);
  const iovec iov[2] = {
      {header, kRecordHeaderBytes},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  const std::size_t bytes = kRecordHeaderBytes + payload.size();
  // A short write leaves a torn frame; the next writer open truncates it.
  if (::pwritev(tail_fd_, iov, 2, static_cast<off_t>(tail_used_)) !=
      static_cast<ssize_t>(bytes)) {
    fail();
    return false;
  }
  tail_used_ += bytes;
  last_append_epoch_ = epoch;
  ++records_appended_;
  if (tel_records_ != nullptr) {
    tel_records_->add(1);
    tel_bytes_->add(bytes);
  }
  return true;
}

bool TimeShardLog::sync() {
  if (!writable_ || tail_fd_ < 0) return true;
  const auto start = std::chrono::steady_clock::now();
  const bool ok = ::fdatasync(tail_fd_) == 0;
  if (tel_sync_ms_ != nullptr) tel_sync_ms_->observe(ms_since(start));
  return ok;
}

void TimeShardLog::finalize() {
  if (!writable_ || tail_fd_ < 0) return;
  const auto start = std::chrono::steady_clock::now();
  (void)sync();
  finalize_ms_accum_ += ms_since(start);
  ++finalizes_;
}

bool TimeShardLog::truncate_after_epoch(std::optional<std::uint64_t> epoch) {
  if (!writable_ || failed_) return false;
  close_tail();  // reopened below on the boundary shard
  // Shards whose whole range lies beyond the epoch go away entirely (all of
  // them when wiping).
  while (!shard_indices_.empty() &&
         (!epoch.has_value() ||
          shard_indices_.back() * cfg_.epochs_per_shard > *epoch)) {
    std::error_code ec;
    fs::remove(shard_path(shard_indices_.back()), ec);
    shard_indices_.pop_back();
  }
  if (shard_indices_.empty()) {
    last_append_epoch_.reset();
    return true;
  }
  // The boundary shard may still hold records past the epoch: cut at the
  // first one (or at its torn tail, where the walk ends).  It becomes the
  // append tail.
  const std::uint64_t idx = shard_indices_.back();
  std::size_t cut = kShardHeaderBytes;
  std::optional<std::uint64_t> last;
  {
    FlatMmap map;
    if (!map.open(shard_path(idx)) || !header_ok(map, idx)) {
      fail();
      return false;
    }
    const std::span<const std::uint8_t> bytes(map.data(), map.size());
    std::size_t offset = cut;
    while (auto rec = next_in_shard(bytes, offset, idx)) {
      if (rec->epoch > *epoch) break;
      cut = offset;
      last = rec->epoch;
    }
  }
  if (!open_tail(idx, cut)) {
    fail();
    return false;
  }
  last_append_epoch_ = last;
  return true;
}

std::optional<RecordView> TimeShardLog::next_in_shard(
    std::span<const std::uint8_t> bytes, std::size_t& offset,
    std::uint64_t index) const noexcept {
  std::size_t next = offset;
  auto rec = next_record(bytes, next);
  if (!rec || rec->epoch / cfg_.epochs_per_shard != index) return std::nullopt;
  offset = next;
  return rec;
}

bool TimeShardLog::walk_shard(
    std::uint64_t index,
    const std::function<bool(const RecordView&)>& fn) const {
  FlatMmap map;
  if (!map.open(shard_path(index))) return false;
  if (!header_ok(map, index)) return false;  // torn roll
  const std::span<const std::uint8_t> bytes(map.data(), map.size());
  std::size_t offset = kShardHeaderBytes;
  while (auto rec = next_in_shard(bytes, offset, index)) {
    if (tel_scan_bytes_ != nullptr) {
      tel_scan_bytes_->add(kRecordHeaderBytes + rec->payload.size());
    }
    if (!fn(*rec)) return false;
  }
  return true;
}

void TimeShardLog::for_each(
    const std::function<bool(const RecordView&)>& fn) const {
  for (const std::uint64_t idx : shard_indices_) {
    if (!walk_shard(idx, fn)) return;
  }
}

void TimeShardLog::for_each_in_epoch(
    std::uint64_t epoch,
    const std::function<bool(const RecordView&)>& fn) const {
  const std::uint64_t index = epoch / cfg_.epochs_per_shard;
  if (!std::binary_search(shard_indices_.begin(), shard_indices_.end(),
                          index)) {
    return;
  }
  (void)walk_shard(index, [&](const RecordView& rec) {
    if (rec.epoch > epoch) return false;
    return rec.epoch < epoch || fn(rec);
  });
}

std::optional<std::uint64_t> TimeShardLog::last_epoch(
    std::optional<RecordKind> kind) const {
  std::optional<std::uint64_t> last;
  for (auto it = shard_indices_.rbegin(); !last && it != shard_indices_.rend();
       ++it) {
    (void)walk_shard(*it, [&](const RecordView& rec) {
      if (!kind || rec.kind == *kind) last = rec.epoch;
      return true;
    });
  }
  return last;
}

std::vector<std::string> TimeShardLog::shard_paths() const {
  std::vector<std::string> paths;
  paths.reserve(shard_indices_.size());
  for (const std::uint64_t idx : shard_indices_) {
    paths.push_back(shard_path(idx));
  }
  return paths;
}

}  // namespace jaal::store
