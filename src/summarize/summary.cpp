#include "summarize/summary.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace jaal::summarize {
namespace {

constexpr std::uint8_t kTagCombined = 1;
constexpr std::uint8_t kTagSplit = 2;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 24)};
  out.insert(out.end(), b, b + 4);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Scalar writer for the configured precision: f32 quantizes (the wire
/// model), f64 round-trips doubles bit-exactly (the store model).
struct ScalarWriter {
  std::vector<std::uint8_t>& out;
  WirePrecision precision;

  void scalar(double v) const {
    if (precision == WirePrecision::kFloat64) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      put_u64(out, bits);
    } else {
      const float f = static_cast<float>(v);
      std::uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      put_u32(out, bits);
    }
  }
};

class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, WirePrecision precision)
      : bytes_(bytes), precision_(precision) {}

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
  double scalar() {
    if (precision_ == WirePrecision::kFloat64) {
      const std::uint64_t bits =
          std::uint64_t{u32()} | (std::uint64_t{u32()} << 32);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return d;
    }
    const std::uint32_t bits = u32();
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return static_cast<double>(f);
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t scalar_bytes() const noexcept {
    return precision_ == WirePrecision::kFloat64 ? 8 : 4;
  }
  /// Throws unless `count` more items of `item_bytes` each fit in the
  /// buffer: checked before sizing a container from a count off the wire,
  /// so a corrupt count cannot trigger a huge allocation.
  void need_items(std::uint64_t count, std::size_t item_bytes) const {
    if (count > (bytes_.size() - pos_) / item_bytes) {
      throw std::runtime_error("summary deserialize: truncated buffer");
    }
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::runtime_error("summary deserialize: truncated buffer");
    }
  }
  std::span<const std::uint8_t> bytes_;
  WirePrecision precision_;
  std::size_t pos_ = 0;
};

void put_matrix(const ScalarWriter& w, const linalg::Matrix& m) {
  put_u32(w.out, static_cast<std::uint32_t>(m.rows()));
  put_u32(w.out, static_cast<std::uint32_t>(m.cols()));
  for (double v : m.data()) w.scalar(v);
}

linalg::Matrix get_matrix(Reader& r) {
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  if (std::uint64_t{rows} * cols > (1u << 26)) {
    throw std::runtime_error("summary deserialize: implausible matrix size");
  }
  r.need_items(std::uint64_t{rows} * cols, r.scalar_bytes());
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = r.scalar();
  return m;
}

}  // namespace

std::size_t CombinedSummary::element_count() const noexcept {
  return centroids.rows() * (centroids.cols() + 1);
}

void CombinedSummary::check_invariants() const {
  if (counts.size() != centroids.rows()) {
    throw std::logic_error("CombinedSummary: counts/centroid row mismatch");
  }
}

std::size_t SplitSummary::element_count() const noexcept {
  const std::size_t r = sigma.size();
  const std::size_t k = u_centroids.rows();
  const std::size_t p = vt.cols();
  return r * (k + p + 1) + k;
}

void SplitSummary::check_invariants() const {
  if (counts.size() != u_centroids.rows()) {
    throw std::logic_error("SplitSummary: counts/centroid row mismatch");
  }
  if (u_centroids.cols() != sigma.size() || vt.rows() != sigma.size()) {
    throw std::logic_error("SplitSummary: rank dimensions disagree");
  }
}

CombinedSummary SplitSummary::reconstruct() const {
  check_invariants();
  // X~_p = U~_r * diag(sigma) * V_r^T; fold sigma into U~_r first.
  linalg::Matrix scaled = u_centroids;
  for (std::size_t row = 0; row < scaled.rows(); ++row) {
    auto rview = scaled.row(row);
    for (std::size_t c = 0; c < sigma.size(); ++c) rview[c] *= sigma[c];
  }
  CombinedSummary out;
  out.monitor = monitor;
  out.centroids = scaled * vt;
  out.counts = counts;
  return out;
}

std::size_t element_count(const MonitorSummary& s) noexcept {
  return std::visit([](const auto& v) { return v.element_count(); }, s);
}

std::size_t wire_bytes(const MonitorSummary& s) noexcept {
  // float32 scalars; counts ride as uint32 alongside (already included in
  // the element count as the "+1" / "+k" terms).
  return element_count(s) * 4;
}

std::vector<std::uint8_t> serialize(const MonitorSummary& s,
                                    WirePrecision precision) {
  std::vector<std::uint8_t> out;
  out.reserve(element_count(s) * 8 + 64);
  out.push_back(kWireMagic);
  out.push_back(static_cast<std::uint8_t>(precision));
  const ScalarWriter w{out, precision};
  if (const auto* c = std::get_if<CombinedSummary>(&s)) {
    c->check_invariants();
    out.push_back(kTagCombined);
    put_u32(out, c->monitor);
    put_matrix(w, c->centroids);
    put_u32(out, static_cast<std::uint32_t>(c->counts.size()));
    for (std::uint64_t n : c->counts) {
      put_u32(out, static_cast<std::uint32_t>(n));
    }
  } else {
    const auto& sp = std::get<SplitSummary>(s);
    sp.check_invariants();
    out.push_back(kTagSplit);
    put_u32(out, sp.monitor);
    put_matrix(w, sp.u_centroids);
    put_u32(out, static_cast<std::uint32_t>(sp.sigma.size()));
    for (double v : sp.sigma) w.scalar(v);
    put_matrix(w, sp.vt);
    put_u32(out, static_cast<std::uint32_t>(sp.counts.size()));
    for (std::uint64_t n : sp.counts) {
      put_u32(out, static_cast<std::uint32_t>(n));
    }
  }
  return out;
}

MonitorSummary deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 2) {
    throw std::runtime_error("summary deserialize: truncated buffer");
  }
  if (bytes[0] != kWireMagic) {
    throw std::runtime_error(
        "summary deserialize: bad magic byte (not a serialized summary, or "
        "a pre-versioning buffer)");
  }
  const std::uint8_t version = bytes[1];
  if (version != static_cast<std::uint8_t>(WirePrecision::kFloat32) &&
      version != static_cast<std::uint8_t>(WirePrecision::kFloat64)) {
    throw std::runtime_error(
        "summary deserialize: unsupported format version " +
        std::to_string(version));
  }
  Reader r(bytes.subspan(2), static_cast<WirePrecision>(version));
  const std::uint8_t tag = r.u8();
  if (tag == kTagCombined) {
    CombinedSummary c;
    c.monitor = r.u32();
    c.centroids = get_matrix(r);
    const std::uint32_t n = r.u32();
    r.need_items(n, 4);
    c.counts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) c.counts.push_back(r.u32());
    c.check_invariants();
    return c;
  }
  if (tag == kTagSplit) {
    SplitSummary s;
    s.monitor = r.u32();
    s.u_centroids = get_matrix(r);
    const std::uint32_t nr = r.u32();
    r.need_items(nr, r.scalar_bytes());
    s.sigma.reserve(nr);
    for (std::uint32_t i = 0; i < nr; ++i) s.sigma.push_back(r.scalar());
    s.vt = get_matrix(r);
    const std::uint32_t n = r.u32();
    r.need_items(n, 4);
    s.counts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) s.counts.push_back(r.u32());
    s.check_invariants();
    return s;
  }
  throw std::runtime_error("summary deserialize: unknown tag");
}

}  // namespace jaal::summarize
