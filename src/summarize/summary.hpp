// In-network packet summaries (§4.3).
//
// Two summary shapes carry the same information:
//  * CombinedSummary S1 = [X~_p | c]: k centroids in full field space plus
//    membership counts — k(p+1) elements.
//  * SplitSummary S2 = {U~_r, Sigma_r V_r^T, c}: k centroids in the rank-r
//    space plus the shared factor — r(k+p+1)+k elements.
// Monitors pick whichever is smaller for the configured (r, k, p); the
// inference module reconstructs S2 into S1 form before aggregation (§5.1).
// Both travel in one encoding, serialize()'s float32 bytes, which the
// inference tier aggregates and the store keeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "linalg/matrix.hpp"

namespace jaal::summarize {

/// Identifies which monitor produced a summary (for feedback requests).
using MonitorId = std::uint32_t;

struct CombinedSummary {
  MonitorId monitor = 0;
  linalg::Matrix centroids;            ///< k x p, normalized field space.
  std::vector<std::uint64_t> counts;   ///< Cluster sizes, length k.

  /// Number of scalar elements transmitted: k(p+1).
  [[nodiscard]] std::size_t element_count() const noexcept;

  /// Validates the k x (p, counts) invariant; throws std::logic_error.
  void check_invariants() const;
};

struct SplitSummary {
  MonitorId monitor = 0;
  linalg::Matrix u_centroids;          ///< k x r, clustered rows of U_r.
  std::vector<double> sigma;           ///< r singular values.
  linalg::Matrix vt;                   ///< r x p, the V_r^T factor.
  std::vector<std::uint64_t> counts;   ///< Cluster sizes, length k.

  /// Number of scalar elements transmitted: r(k+p+1)+k.
  [[nodiscard]] std::size_t element_count() const noexcept;

  /// Reconstructs the combined form: centroids = U~_r * diag(sigma) * V^T.
  [[nodiscard]] CombinedSummary reconstruct() const;

  void check_invariants() const;
};

using MonitorSummary = std::variant<CombinedSummary, SplitSummary>;

/// Elements of either variant.
[[nodiscard]] std::size_t element_count(const MonitorSummary& s) noexcept;

/// Transmitted size in bytes.  Scalars go as float32 and counts as uint32 —
/// the precision serialize() ships (float64 fidelity is not needed for
/// threshold matching).
[[nodiscard]] std::size_t wire_bytes(const MonitorSummary& s) noexcept;

/// Every serialized summary starts with this magic byte followed by a
/// format-version byte; parse_summary() rejects anything else, so a stale or
/// foreign buffer fails loudly instead of decoding as garbage.
inline constexpr std::uint8_t kWireMagic = 0x4A;  // 'J'

/// The one format version: float32 scalars.  (Version 2, float64 scalars,
/// was a store-only encoding; its buffers are refused.)
inline constexpr std::uint8_t kWireVersion = 1;

/// Widest field space a parsed summary may claim: far above the header
/// fields (packet::kFieldCount = 18), and small enough that a summary's
/// aggregate rows (8 bytes per column) stay within 128x of the 4 count
/// bytes each row costs on the wire.
inline constexpr std::size_t kMaxSummaryCols = 64;

/// Serializes to a self-describing byte buffer: magic, version, tag, then
/// little-endian fields with float32 scalars.
[[nodiscard]] std::vector<std::uint8_t> serialize(const MonitorSummary& s);

/// serialize(s) into `out`, replacing its contents but keeping its
/// capacity, so a caller recycling buffers allocates nothing once they
/// stop growing.
void serialize(const MonitorSummary& s, std::vector<std::uint8_t>& out);

/// A run of little-endian float32 scalars inside a serialized buffer, read
/// in place.
struct WireScalars {
  const std::uint8_t* bytes = nullptr;
  std::size_t size = 0;  ///< Scalars, not bytes.

  /// Widens all `size` scalars to out[0, size).
  void decode(double* out) const noexcept;
};

/// A validated serialized summary, viewed in place: its dimensions plus
/// scalar and count ranges aliasing the parsed buffer, so it is valid only
/// while that buffer lives.  Combined summaries fill `centroids` (rows x
/// cols); split ones fill `u_centroids` (rows x rank), `sigma` (rank) and
/// `vt` (rank x cols).
struct SummaryView {
  MonitorId monitor = 0;
  bool split = false;
  std::size_t rows = 0;  ///< k: centroids and counts.
  std::size_t rank = 0;  ///< r: split summaries only.
  std::size_t cols = 0;  ///< p: the field width.
  WireScalars centroids;
  WireScalars u_centroids;
  WireScalars sigma;
  WireScalars vt;
  const std::uint8_t* counts = nullptr;  ///< rows little-endian uint32.

  /// Cluster size of row i.
  [[nodiscard]] std::uint64_t count(std::size_t i) const noexcept;
};

/// The one summary parser: validates a buffer produced by serialize()
/// without copying it.  Throws std::runtime_error on a missing/foreign magic
/// byte, an unsupported format version, a malformed body, a field width
/// above kMaxSummaryCols, or a matrix of more than 2^26 elements (on the
/// wire, or the k x p centroids a split summary reconstructs to), and
/// std::logic_error when the decoded dimensions break the summary's
/// invariants (check_invariants' messages).
[[nodiscard]] SummaryView parse_summary(std::span<const std::uint8_t> bytes);

/// Materializes parse_summary(bytes); throws exactly what it throws.
[[nodiscard]] MonitorSummary deserialize(
    std::span<const std::uint8_t> bytes);

}  // namespace jaal::summarize
