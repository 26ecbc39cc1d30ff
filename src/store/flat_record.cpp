#include "store/flat_record.hpp"

#include <array>

namespace jaal::store {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrc[0] is the
/// classic bytewise table, kCrc[k] advances a byte through k more zero
/// bytes, so eight input bytes fold in per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

void put_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_record_header(const RecordHeader& h, std::uint8_t* out) noexcept {
  put_u32(out + 0, h.payload_len);
  put_u32(out + 4, h.crc32);
  put_u32(out + 8, static_cast<std::uint32_t>(h.epoch & 0xFFFFFFFFu));
  put_u32(out + 12, static_cast<std::uint32_t>(h.epoch >> 32));
  put_u32(out + 16, h.stream);
  put_u32(out + 20, h.kind);
}

RecordHeader decode_record_header(const std::uint8_t* in) noexcept {
  RecordHeader h;
  h.payload_len = get_u32(in + 0);
  h.crc32 = get_u32(in + 4);
  h.epoch = std::uint64_t{get_u32(in + 8)} |
            (std::uint64_t{get_u32(in + 12)} << 32);
  h.stream = get_u32(in + 16);
  h.kind = get_u32(in + 20);
  return h;
}

std::optional<RecordView> next_record(std::span<const std::uint8_t> shard,
                                      std::size_t& offset) noexcept {
  if (offset + kRecordHeaderBytes > shard.size()) return std::nullopt;
  const RecordHeader h = decode_record_header(shard.data() + offset);
  // An all-zero header is pre-allocated (never written) space, not
  // corruption: kind 0 is not a valid RecordKind either way.
  if (h.kind < static_cast<std::uint32_t>(RecordKind::kSummary) ||
      h.kind > kMaxRecordKind) {
    return std::nullopt;
  }
  if (h.payload_len > kMaxRecordPayload) return std::nullopt;
  const std::size_t end = offset + kRecordHeaderBytes + h.payload_len;
  if (end > shard.size()) return std::nullopt;
  const std::span<const std::uint8_t> payload =
      shard.subspan(offset + kRecordHeaderBytes, h.payload_len);
  if (crc32(payload) != h.crc32) return std::nullopt;
  offset = end;
  return RecordView{h.epoch, h.stream, static_cast<RecordKind>(h.kind),
                    payload};
}

}  // namespace jaal::store
