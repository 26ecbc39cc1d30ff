#include "proto/messages.hpp"

#include <cstring>
#include <stdexcept>

#include "packet/wire.hpp"

namespace jaal::proto {
namespace {

constexpr std::uint8_t kTagLoadUpdate = 1;
constexpr std::uint8_t kTagSummaryUpload = 2;
constexpr std::uint8_t kTagRawRequest = 3;
constexpr std::uint8_t kTagRawResponse = 4;
constexpr std::uint8_t kTagAlert = 5;

constexpr std::size_t kMaxFrame = 64u << 20;  // 64 MiB sanity bound

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFF));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}
void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}
void put_blob(std::vector<std::uint8_t>& out,
              const std::vector<std::uint8_t>& blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = std::uint32_t{bytes_[pos_]} |
                            (std::uint32_t{bytes_[pos_ + 1]} << 8) |
                            (std::uint32_t{bytes_[pos_ + 2]} << 16) |
                            (std::uint32_t{bytes_[pos_ + 3]} << 24);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string string() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// A u32 element count, refused when that many elements of `each` bytes
  /// cannot fit in the rest of the frame: the count is untrusted, and it
  /// sizes a reserve() before the elements are read.
  std::uint32_t count(std::size_t each) {
    const std::uint32_t n = u32();
    if (n > (bytes_.size() - pos_) / each) {
      throw std::runtime_error("proto: element count exceeds frame body");
    }
    return n;
  }
  std::span<const std::uint8_t> blob() {
    const std::uint32_t n = u32();
    need(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  void expect_end() const {
    if (pos_ != bytes_.size()) {
      throw std::runtime_error("proto: trailing bytes in frame");
    }
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::runtime_error("proto: truncated frame body");
    }
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Packet records travel as wire-format headers plus the timestamp; the
/// ground-truth label is experiment metadata and never crosses the wire.
void put_packet(std::vector<std::uint8_t>& out,
                const packet::PacketRecord& pkt) {
  put_f64(out, pkt.timestamp);
  const auto wire = packet::serialize_headers(pkt.ip, pkt.tcp);
  out.insert(out.end(), wire.begin(), wire.end());
}

packet::PacketRecord get_packet(Reader& r) {
  packet::PacketRecord pkt;
  pkt.timestamp = r.f64();
  std::vector<std::uint8_t> wire(packet::kHeadersBytes);
  for (auto& b : wire) b = r.u8();
  const auto parsed = packet::parse_headers(wire);
  if (!parsed) throw std::runtime_error("proto: bad packet in frame");
  pkt.ip = parsed->ip;
  pkt.tcp = parsed->tcp;
  return pkt;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> body;
  std::uint8_t tag = 0;
  if (const auto* load = std::get_if<LoadUpdate>(&msg)) {
    tag = kTagLoadUpdate;
    put_u32(body, load->monitor);
    put_f64(body, load->load_pps);
    put_u64(body, load->buffered);
  } else if (const auto* up = std::get_if<SummaryUpload>(&msg)) {
    tag = kTagSummaryUpload;
    put_u32(body, up->epoch);
    put_blob(body, summarize::serialize(up->summary));
  } else if (const auto* req = std::get_if<RawPacketRequest>(&msg)) {
    tag = kTagRawRequest;
    put_u32(body, req->epoch);
    put_u32(body, static_cast<std::uint32_t>(req->centroids.size()));
    for (std::uint32_t c : req->centroids) put_u32(body, c);
  } else if (const auto* resp = std::get_if<RawPacketResponse>(&msg)) {
    tag = kTagRawResponse;
    put_u32(body, resp->epoch);
    put_u32(body, static_cast<std::uint32_t>(resp->packets.size()));
    for (const auto& pkt : resp->packets) put_packet(body, pkt);
  } else if (const auto* alert = std::get_if<AlertRecord>(&msg)) {
    tag = kTagAlert;
    put_u32(body, alert->sid);
    put_string(body, alert->msg);
    put_u64(body, alert->matched_packets);
    put_u8(body, alert->distributed ? 1 : 0);
    put_u8(body, alert->via_feedback ? 1 : 0);
  }

  std::vector<std::uint8_t> frame;
  frame.reserve(body.size() + 5);
  put_u32(frame, static_cast<std::uint32_t>(body.size() + 1));
  put_u8(frame, tag);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Message decode(std::span<const std::uint8_t> frame) {
  Reader header(frame);
  const std::uint32_t length = header.u32();
  if (length == 0 || length > kMaxFrame) {
    throw std::runtime_error("proto: bad frame length");
  }
  if (frame.size() != 4u + length) {
    throw std::runtime_error("proto: frame length mismatch");
  }
  Reader r(frame.subspan(4));
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kTagLoadUpdate: {
      LoadUpdate m;
      m.monitor = r.u32();
      m.load_pps = r.f64();
      m.buffered = r.u64();
      r.expect_end();
      return m;
    }
    case kTagSummaryUpload: {
      SummaryUpload m;
      m.epoch = r.u32();
      m.summary = summarize::deserialize(r.blob());
      r.expect_end();
      return m;
    }
    case kTagRawRequest: {
      RawPacketRequest m;
      m.epoch = r.u32();
      const std::uint32_t n = r.count(4);
      m.centroids.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) m.centroids.push_back(r.u32());
      r.expect_end();
      return m;
    }
    case kTagRawResponse: {
      RawPacketResponse m;
      m.epoch = r.u32();
      const std::uint32_t n = r.count(8 + packet::kHeadersBytes);
      m.packets.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) m.packets.push_back(get_packet(r));
      r.expect_end();
      return m;
    }
    case kTagAlert: {
      AlertRecord m;
      m.sid = r.u32();
      m.msg = r.string();
      m.matched_packets = r.u64();
      m.distributed = r.u8() != 0;
      m.via_feedback = r.u8() != 0;
      r.expect_end();
      return m;
    }
    default:
      throw std::runtime_error("proto: unknown message tag");
  }
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact occasionally so long-lived connections don't grow unbounded.
  if (consumed_ > 0 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Message> FrameReader::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const std::uint8_t* p = buffer_.data() + consumed_;
  const std::uint32_t length = std::uint32_t{p[0]} |
                               (std::uint32_t{p[1]} << 8) |
                               (std::uint32_t{p[2]} << 16) |
                               (std::uint32_t{p[3]} << 24);
  if (length == 0 || length > kMaxFrame) {
    throw std::runtime_error("proto: bad frame length on stream");
  }
  if (available < 4u + length) return std::nullopt;
  const Message msg =
      decode(std::span<const std::uint8_t>(p, 4u + length));
  consumed_ += 4u + length;
  return msg;
}

}  // namespace jaal::proto
