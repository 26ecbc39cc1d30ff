// Record framing for the flat store: every payload in a .jstore shard is
// wrapped in a fixed 24-byte little-endian header carrying its length, a
// CRC-32 of the payload, and the typed index fields (epoch, stream id,
// record kind).  Walk-on-open validates each frame in order; the first
// frame that fails (bad kind, implausible length, CRC mismatch, or an
// all-zero header marking pre-allocated space) is the torn tail, and
// everything from there on is truncated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace jaal::store {

/// What a record's payload holds.  Values are part of the on-disk format —
/// never renumber.
enum class RecordKind : std::uint32_t {
  kSummary = 1,     ///< summarize::serialize(MonitorSummary): float32.
  kAlert = 2,       ///< One alert JSON line (inference::alert_to_json).
  kProvenance = 3,  ///< One provenance JSON line (observe::to_json).
  kEpochMeta = 4,   ///< Per-epoch commit point (store::EpochMeta).
  kMetrics = 5,     ///< Per-epoch MetricsSnapshot delta (metrics_codec).
  kEvents = 6,      ///< Per-epoch flight-recorder events (metrics_codec).
};

/// Highest valid RecordKind value (frame validation bound).
inline constexpr std::uint32_t kMaxRecordKind =
    static_cast<std::uint32_t>(RecordKind::kEvents);

/// Largest payload a well-formed record may carry; anything bigger in a
/// header is treated as corruption.
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 28;

/// On-disk frame size preceding every payload.
inline constexpr std::size_t kRecordHeaderBytes = 24;

struct RecordHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t crc32 = 0;   ///< CRC-32 (IEEE, reflected) of the payload.
  std::uint64_t epoch = 0;   ///< Epoch index the record belongs to.
  std::uint32_t stream = 0;  ///< Monitor id (summaries) or sid (alerts).
  std::uint32_t kind = 0;    ///< RecordKind.
};

/// One decoded record, payload viewed in place (zero copy: the span aliases
/// the shard mapping and is valid only during iteration).
struct RecordView {
  std::uint64_t epoch = 0;
  std::uint32_t stream = 0;
  RecordKind kind = RecordKind::kSummary;
  std::span<const std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the standard
/// zlib polynomial.  Slicing-by-8 tables at the scalar SIMD dispatch level;
/// a carry-less-multiply fold at the vector levels when the CPU has
/// pclmul.  Every level returns the same value.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes)
    noexcept;

/// Encodes the header little-endian into out[0..24).
void encode_record_header(const RecordHeader& h, std::uint8_t* out) noexcept;

/// Decodes a header from a buffer with at least kRecordHeaderBytes.
[[nodiscard]] RecordHeader decode_record_header(
    const std::uint8_t* in) noexcept;

/// Validates the frame at `offset` inside `shard` (header sanity + CRC).
/// Returns the decoded view and advances `offset` past the record, or
/// nullopt at the torn tail / end of data (offset is left unchanged).
[[nodiscard]] std::optional<RecordView> next_record(
    std::span<const std::uint8_t> shard, std::size_t& offset) noexcept;

/// FNV-1a over a layout description string: the record schema hash baked
/// into every shard header, so a build whose frame layout changed refuses
/// shards written by another.
[[nodiscard]] constexpr std::uint32_t schema_hash(const char* layout) {
  std::uint32_t h = 2166136261u;
  for (const char* p = layout; *p != '\0'; ++p) {
    h ^= static_cast<std::uint8_t>(*p);
    h *= 16777619u;
  }
  return h;
}

/// The schema of the frame defined above; bump the string when the layout
/// changes so old shards are rejected instead of misparsed.
inline constexpr std::uint32_t kRecordSchemaHash =
    schema_hash("v1:len:u32,crc32:u32,epoch:u64,stream:u32,kind:u32,payload");

}  // namespace jaal::store
