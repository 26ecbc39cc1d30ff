// Runtime-dispatched SIMD kernels for the summarization hot path.
//
// Two loop families dominate a monitor's epoch latency: the k-means
// point-to-centroid distance search (O(n k p) per Lloyd iteration) and the
// one-sided Jacobi column sweeps of the SVD (O(n p^2) per sweep).  This
// header exposes portable 4/8-wide kernels for both, written with GCC
// vector extensions and dispatched at runtime (scalar everywhere, AVX2 /
// AVX-512 on x86-64 hosts that support them; JAAL_SIMD=scalar|avx2|avx512
// overrides, force_level() pins a level for tests and benches).
//
// Determinism contract (see DESIGN.md "SIMD kernels & SoA layout"):
//  * Per-point kernels (nearest_centroids, seed_update, nearest_point)
//    reduce over the p fields serially per lane, and lanes never interact —
//    results are bit-identical to the scalar path at every dispatch level.
//    nearest_centroids and seed_update share one lane (the same
//    subtraction, squares summed in the same order) and one select, so a
//    point's seeding state is what a full scan against the seeds returns.
//  * Reduction kernels (dot, pair_dots) use a fixed canonical 4-accumulator
//    order at every level; the 8-wide level deliberately runs the 4-wide
//    reduction body because folding 8 lanes to 4 would regroup the sums.
//  * Elementwise kernels (rotate_pair) perform the same arithmetic per
//    element in every lane — trivially bit-identical.
// Together: seeded Summarizer output is byte-identical across dispatch
// levels and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jaal::linalg::simd {

/// Dispatch level, ordered by vector width.  kAvx2 runs 4 doubles per
/// operation, kAvx512 runs 8 (except reductions, which stay 4-wide — see
/// the determinism contract above).
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

/// alpha = <a,a>, beta = <b,b>, gamma = <a,b> in one pass — the Gram block
/// a Jacobi rotation needs for one column pair.
struct PairDots {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;
};

/// Dot product over n entries, canonical 4-accumulator reduction order.
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// The three Jacobi dot products in one fused pass (same canonical order).
[[nodiscard]] PairDots pair_dots(const double* a, const double* b,
                                 std::size_t n) noexcept;

/// Elementwise plane rotation: (a[i], b[i]) <- (cs*a[i] - sn*b[i],
/// sn*a[i] + cs*b[i]).
void rotate_pair(double* a, double* b, std::size_t n, double cs,
                 double sn) noexcept;

/// Nearest-centroid search for points [begin, end) of an SoA batch: column
/// j of the batch lives at x + j*stride.  `centroids` is row-major k x d.
/// Fills assignment[i] (first index wins ties, matching the scalar scan),
/// best_dist[i], and second_dist[i]: the smallest distance to any centroid
/// other than assignment[i] (equal to best_dist[i] when two centroids tie
/// for nearest, DBL_MAX when k == 1).  The second distance is a selection
/// among the same per-lane sums, so it is as bit-exact as the first.  Lanes
/// are points, so any block decomposition of [0, n) yields identical bits.
void nearest_centroids(const double* x, std::size_t stride, std::size_t d,
                       const double* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::size_t* assignment, double* best_dist,
                       double* second_dist) noexcept;

/// k-means++ D^2 update for points [0, n) of an SoA batch against one new
/// centre c (length d), the seed numbered c_index: folds |x_i - c|^2 into
/// the point's running (d2[i], nearest[i], second[i]) with nearest_centroids'
/// select, then returns sum_i d2[i] * w[i] accumulated serially in point
/// order.  Each lane forms x[j] - c[j] and sums the squares in j order, the
/// same arithmetic as one nearest_centroids lane, and the test is a strict
/// less-than, so the earliest centre keeps a tie.  Starting from d2 = second
/// = DBL_MAX and nearest = 0, k updates with the seeds in order leave
/// exactly the assignment, best_dist and second_dist nearest_centroids
/// returns against those k rows.  The total is one chain of adds in i order
/// at every level, so every level is bit-identical to the scalar loop.
/// Fusing the total lets the vector work of the next points overlap the
/// serial chain.
[[nodiscard]] double seed_update(const double* x, std::size_t stride,
                                 std::size_t d, const double* c,
                                 std::size_t c_index, const double* w,
                                 std::size_t n, double* d2,
                                 std::size_t* nearest,
                                 double* second) noexcept;

struct Nearest {
  std::size_t index = 0;
  double dist = 0.0;
};

/// Nearest centroid for ONE point v (length d) against centroids stored
/// dimension-major: coordinate j of centroid c lives at dims[j*stride + c].
/// Lanes are centroids; the arg-min scan is first-index-wins like the
/// scalar loop.  This is the streaming mini-batch inner loop.
[[nodiscard]] Nearest nearest_point(const double* dims, std::size_t stride,
                                    std::size_t d, std::size_t k,
                                    const double* v) noexcept;

}  // namespace jaal::linalg::simd
