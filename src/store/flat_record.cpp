#include "store/flat_record.hpp"

#include <array>

#include "linalg/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define JAAL_CRC_FOLD 1
#include <immintrin.h>
#endif

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

/// Slicing-by-8 body: folds bytes into the running (pre-inversion) CRC
/// register `c`, eight at a time, then byte by byte.
std::uint32_t crc32_table(std::uint32_t c, const std::uint8_t* p,
                          std::size_t n) noexcept {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef JAAL_CRC_FOLD
__m128i load128(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One fold step: x's low and high halves times the two halves of `k`,
/// xored into the next 128 bits of input.
[[gnu::target("pclmul")]] inline __m128i fold(__m128i x, __m128i k,
                                              __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009) in the bit-reflected
/// domain: four 128-bit lanes fold 64 bytes per step, collapse to one
/// lane, fold the remaining 16-byte blocks, and a Barrett reduction brings
/// the 128-bit remainder down to 32 bits.  `n` is a multiple of 16, at
/// least 64; `c` is the running register, as in crc32_table.  Each fold
/// constant is (x^d mod P)' << 1, ' being 32-bit reflection, for the fold
/// distances d = 4*128 + 32 and 4*128 - 32 (k1k2), 128 + 32 and 128 - 32
/// (k3k4) and 64 (k5); `poly` holds P' and floor(x^64 / P)', reflected
/// over 33 bits.
[[gnu::target("pclmul")]] std::uint32_t crc32_fold(std::uint32_t c,
                                                   const std::uint8_t* p,
                                                   std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

/// The fold runs at every vector dispatch level (JAAL_SIMD / force_level
/// pin it off with "scalar") on CPUs that report pclmul.
bool fold_enabled() noexcept {
  static const bool pclmul = __builtin_cpu_supports("pclmul") != 0;
  return pclmul && linalg::simd::active() != linalg::simd::Level::kScalar;
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
#ifdef JAAL_CRC_FOLD
  if (n >= 64 && fold_enabled()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = crc32_fold(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return crc32_table(c, p, n) ^ 0xFFFFFFFFu;
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
