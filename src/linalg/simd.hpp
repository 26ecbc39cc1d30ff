// Runtime-dispatched SIMD kernels for the summarization hot path.
//
// Two loop families dominate a monitor's epoch latency: the k-means
// point-to-centroid distance search (O(n k p) per Lloyd iteration) and
// truncated_svd's Gram matrix, one O(n p^2) pass of dot() over the batch
// (linalg/svd.hpp).  One-sided Jacobi, which serves svd() and the Gram
// path's fallback, builds each pair's Gram block from dot() too and
// rotates in plain scalar code.  This header exposes portable kernels for
// both families, written with GCC vector extensions and dispatched at
// runtime (scalar everywhere, AVX2 / AVX-512 on x86-64 hosts that support
// them; JAAL_SIMD=scalar|avx2|avx512 overrides, force_level() pins a level
// for tests and benches).  dot() runs 4 doubles per operation; the k-means
// kernels cluster at the float32 precision summaries ship at and run 8/16
// floats.
//
// Determinism contract (see DESIGN.md "SIMD kernels & SoA layout"):
//  * Per-point kernels (nearest_centroids, seed_update) reduce over the p
//    fields serially per lane, and lanes never interact — results are
//    bit-identical to the scalar path at every dispatch level.
//    nearest_centroids and seed_update share one lane (the same
//    subtraction, squares summed in the same order) and one select, so a
//    point's seeding state is what a full scan against the seeds returns.
//    seed_update's total sums 16 canonical double lanes in one fixed order.
//  * The reduction kernel dot uses a fixed canonical 4-accumulator order at
//    every level; the 8-wide level deliberately runs the 4-wide body
//    because folding 8 lanes to 4 would regroup the sums.
// Together: seeded Summarizer output is byte-identical across dispatch
// levels and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jaal::linalg::simd {

/// Dispatch level, ordered by vector width.  kAvx2 runs 4 doubles or 8
/// floats per operation, kAvx512 runs 8 doubles or 16 floats (except dot,
/// which stays 4-wide — see the determinism contract above).
enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best level this CPU supports (computed once).
[[nodiscard]] Level detected() noexcept;

/// Level the kernels currently dispatch to: detected(), lowered by the
/// JAAL_SIMD environment variable (read once) or force_level().
[[nodiscard]] Level active() noexcept;

/// Pins the dispatch level (clamped to detected()); for tests/benches
/// comparing scalar vs SIMD on the same host.  Returns the level actually
/// in effect after clamping.
Level force_level(Level level) noexcept;

[[nodiscard]] std::string_view level_name(Level level) noexcept;

/// Dot product over n entries, canonical 4-accumulator reduction order.
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// Nearest-centroid search for points [begin, end) of a float SoA batch:
/// column j of the batch lives at x + j*stride.  `centroids` is row-major
/// k x d.  Fills assignment[i] (first index wins ties, matching the scalar
/// scan), best_dist[i], and second_dist[i]: the smallest squared distance to
/// any centroid other than assignment[i] (equal to best_dist[i] when two
/// centroids tie for nearest, FLT_MAX when k == 1).  Distances are float
/// sums of float squares in field order; index lanes are 32-bit, so k must
/// be below 2^32.  The second distance is a selection among the same
/// per-lane sums, so it is as bit-exact as the first.  Lanes are points, so
/// any block decomposition of [0, n) yields identical bits.
void nearest_centroids(const float* x, std::size_t stride, std::size_t d,
                       const float* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::uint32_t* assignment, float* best_dist,
                       float* second_dist) noexcept;

/// k-means++ D^2 update for points [0, n) of a float SoA batch against one
/// new centre c (length d), the seed numbered c_index: folds |x_i - c|^2
/// into the point's running (d2[i], nearest[i], second[i]) with
/// nearest_centroids' select, then returns sum_i d2[i] in double.  Each
/// lane forms x[j] - c[j] and sums the squares in j order, the same
/// arithmetic as one nearest_centroids lane, and the test is a strict
/// less-than, so the earliest centre keeps a tie.  Starting from d2 =
/// second = FLT_MAX and nearest = 0, k updates with the seeds in order leave
/// exactly the assignment, best_dist and second_dist nearest_centroids
/// returns against those k rows.  The total is summed in 16 canonical
/// double lanes: lane l adds d2[i] for i % 16 == l in ascending i, and the
/// lanes fold as a halving tree (l += l + 8, then + 4, + 2, + 1).  Every
/// level runs that order, so the total is bit-identical to the scalar loop,
/// and no serial chain of n adds bounds the kernel.
[[nodiscard]] double seed_update(const float* x, std::size_t stride,
                                 std::size_t d, const float* c,
                                 std::uint32_t c_index, std::size_t n,
                                 float* d2, std::uint32_t* nearest,
                                 float* second) noexcept;

}  // namespace jaal::linalg::simd
