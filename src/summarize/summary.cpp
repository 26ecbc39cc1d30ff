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

void put_scalar(std::vector<std::uint8_t>& out, double v) {
  const float f = static_cast<float>(v);
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  put_u32(out, bits);
}

std::uint32_t get_u32(const std::uint8_t* in) noexcept {
  return std::uint32_t{in[0]} | (std::uint32_t{in[1]} << 8) |
         (std::uint32_t{in[2]} << 16) | (std::uint32_t{in[3]} << 24);
}

double get_scalar(const std::uint8_t* in) noexcept {
  const std::uint32_t bits = get_u32(in);
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

[[noreturn]] void truncated() {
  throw std::runtime_error("summary deserialize: truncated buffer");
}

/// Bounds-checked cursor over a serialized body.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return *take(1, 1); }
  std::uint32_t u32() { return get_u32(take(1, 4)); }
  /// Claims `count` items of `item_bytes` each and returns where they
  /// start; throws unless they fit, so a corrupt count off the wire can
  /// never reach past the buffer.
  const std::uint8_t* take(std::uint64_t count, std::size_t item_bytes) {
    if (count > (bytes_.size() - pos_) / item_bytes) truncated();
    const std::uint8_t* at = bytes_.data() + pos_;
    pos_ += static_cast<std::size_t>(count) * item_bytes;
    return at;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

WireScalars get_scalars(Reader& r, std::uint64_t count) {
  return {r.take(count, 4), static_cast<std::size_t>(count)};
}

void put_matrix(std::vector<std::uint8_t>& out, const linalg::Matrix& m) {
  put_u32(out, static_cast<std::uint32_t>(m.rows()));
  put_u32(out, static_cast<std::uint32_t>(m.cols()));
  for (double v : m.data()) put_scalar(out, v);
}

/// Refuses a rows x cols matrix of more than 2^26 elements: far above any
/// legal summary (k <= 500, p = 18), and below an allocation that could hurt.
void check_plausible(std::uint64_t rows, std::uint64_t cols) {
  if (rows * cols > (1u << 26)) {
    throw std::runtime_error("summary deserialize: implausible matrix size");
  }
}

/// Refuses a field width no pipeline produces (kMaxSummaryCols).
void check_width(std::size_t cols) {
  if (cols > kMaxSummaryCols) {
    throw std::runtime_error("summary deserialize: implausible field width");
  }
}

WireScalars get_matrix(Reader& r, std::size_t& rows, std::size_t& cols) {
  rows = r.u32();
  cols = r.u32();
  check_plausible(rows, cols);
  return get_scalars(r, std::uint64_t{rows} * cols);
}

linalg::Matrix to_matrix(const WireScalars& s, std::size_t rows,
                         std::size_t cols) {
  linalg::Matrix m(rows, cols);
  s.decode(m.data().data());
  return m;
}

// The dimension rules of a valid summary, stated once for check_invariants
// and parse_summary.
void check_combined_dims(std::size_t counts, std::size_t rows) {
  if (counts != rows) {
    throw std::logic_error("CombinedSummary: counts/centroid row mismatch");
  }
}

void check_split_dims(std::size_t counts, std::size_t rows,
                      std::size_t u_cols, std::size_t rank,
                      std::size_t vt_rows) {
  if (counts != rows) {
    throw std::logic_error("SplitSummary: counts/centroid row mismatch");
  }
  if (u_cols != rank || vt_rows != rank) {
    throw std::logic_error("SplitSummary: rank dimensions disagree");
  }
}

}  // namespace

std::size_t CombinedSummary::element_count() const noexcept {
  return centroids.rows() * (centroids.cols() + 1);
}

void CombinedSummary::check_invariants() const {
  check_combined_dims(counts.size(), centroids.rows());
}

std::size_t SplitSummary::element_count() const noexcept {
  const std::size_t r = sigma.size();
  const std::size_t k = u_centroids.rows();
  const std::size_t p = vt.cols();
  return r * (k + p + 1) + k;
}

void SplitSummary::check_invariants() const {
  check_split_dims(counts.size(), u_centroids.rows(), u_centroids.cols(),
                   sigma.size(), vt.rows());
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

std::vector<std::uint8_t> serialize(const MonitorSummary& s) {
  std::vector<std::uint8_t> out;
  serialize(s, out);
  return out;
}

void serialize(const MonitorSummary& s, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(element_count(s) * 4 + 64);
  out.push_back(kWireMagic);
  out.push_back(kWireVersion);
  if (const auto* c = std::get_if<CombinedSummary>(&s)) {
    c->check_invariants();
    out.push_back(kTagCombined);
    put_u32(out, c->monitor);
    put_matrix(out, c->centroids);
    put_u32(out, static_cast<std::uint32_t>(c->counts.size()));
    for (std::uint64_t n : c->counts) {
      put_u32(out, static_cast<std::uint32_t>(n));
    }
  } else {
    const auto& sp = std::get<SplitSummary>(s);
    sp.check_invariants();
    out.push_back(kTagSplit);
    put_u32(out, sp.monitor);
    put_matrix(out, sp.u_centroids);
    put_u32(out, static_cast<std::uint32_t>(sp.sigma.size()));
    for (double v : sp.sigma) put_scalar(out, v);
    put_matrix(out, sp.vt);
    put_u32(out, static_cast<std::uint32_t>(sp.counts.size()));
    for (std::uint64_t n : sp.counts) {
      put_u32(out, static_cast<std::uint32_t>(n));
    }
  }
}

void WireScalars::decode(double* out) const noexcept {
  for (std::size_t i = 0; i < size; ++i) out[i] = get_scalar(bytes + i * 4);
}

std::uint64_t SummaryView::count(std::size_t i) const noexcept {
  return get_u32(counts + i * 4);
}

SummaryView parse_summary(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 2) truncated();
  if (bytes[0] != kWireMagic) {
    throw std::runtime_error(
        "summary deserialize: bad magic byte (not a serialized summary, or "
        "a pre-versioning buffer)");
  }
  if (bytes[1] != kWireVersion) {
    throw std::runtime_error(
        "summary deserialize: unsupported format version " +
        std::to_string(bytes[1]));
  }
  Reader r(bytes.subspan(2));
  SummaryView v;
  const std::uint8_t tag = r.u8();
  if (tag == kTagCombined) {
    v.monitor = r.u32();
    v.centroids = get_matrix(r, v.rows, v.cols);
    check_width(v.cols);
    const std::uint32_t n = r.u32();
    v.counts = r.take(n, 4);
    check_combined_dims(n, v.rows);
    return v;
  }
  if (tag == kTagSplit) {
    v.split = true;
    v.monitor = r.u32();
    std::size_t u_cols = 0;
    v.u_centroids = get_matrix(r, v.rows, u_cols);
    v.rank = r.u32();
    v.sigma = get_scalars(r, v.rank);
    std::size_t vt_rows = 0;
    v.vt = get_matrix(r, vt_rows, v.cols);
    check_width(v.cols);
    // The reconstructed k x p centroids: a rank-0 summary's wire matrices
    // are empty whatever k and p claim.
    check_plausible(v.rows, v.cols);
    const std::uint32_t n = r.u32();
    v.counts = r.take(n, 4);
    check_split_dims(n, v.rows, u_cols, v.rank, vt_rows);
    return v;
  }
  throw std::runtime_error("summary deserialize: unknown tag");
}

MonitorSummary deserialize(std::span<const std::uint8_t> bytes) {
  const SummaryView v = parse_summary(bytes);
  std::vector<std::uint64_t> counts(v.rows);
  for (std::size_t i = 0; i < v.rows; ++i) counts[i] = v.count(i);
  if (!v.split) {
    return CombinedSummary{v.monitor, to_matrix(v.centroids, v.rows, v.cols),
                           std::move(counts)};
  }
  std::vector<double> sigma(v.rank);
  v.sigma.decode(sigma.data());
  return SplitSummary{v.monitor, to_matrix(v.u_centroids, v.rows, v.rank),
                      std::move(sigma), to_matrix(v.vt, v.rank, v.cols),
                      std::move(counts)};
}

}  // namespace jaal::summarize
