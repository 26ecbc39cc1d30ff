// Vector quantization of the packets mode (§4.3).
//
// The paper poses packet-mode reduction as k-means (NP-hard in general) and
// uses k-means++ seeding with Lloyd iterations, for its O(log k)
// competitiveness and fast convergence.  A plain random-seeded Lloyd is also
// provided for the initialization ablation bench.  Every row is one packet
// and counts once.
//
// Lloyd's assignment passes are bounded (Hamerly 2010): a point is rescanned
// only when its triangle-inequality bounds cannot prove its centroid
// strictly nearest.  The bounds carry slack, so ties always take the full
// scan, and results are bit-identical to a full scan every pass.  The first
// pass is never run as such: seeding already measures every point against
// every seed and keeps each point's nearest seed and runner-up distance,
// which is exactly that scan, and Lloyd starts from it (DESIGN.md "Exact
// bounded k-means").
//
// Clustering runs at the float32 precision a summary ships at: the points
// are a float copy of the batch, the kernels compute float distances 8 or
// 16 lanes wide, and each centroid is rounded to float once per update
// from a double sum.  Serializing the centroids therefore drops no bit.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/soa.hpp"

namespace jaal::runtime {
class ThreadPool;
}

namespace jaal::summarize {

enum class KMeansInit : std::uint8_t {
  kPlusPlus,  ///< k-means++ D^2 seeding (the paper's choice).
  kRandom,    ///< Uniform random rows (naive Lloyd), for ablation.
};

struct KMeansOptions {
  std::size_t max_iterations = 25;
  double tolerance = 1e-7;  ///< Stop when centroids move less than this.
  KMeansInit init = KMeansInit::kPlusPlus;
  /// Optional execution runtime: each assignment pass fans out over the
  /// pool in 512-point blocks.  A block checks its points' Hamerly bounds,
  /// recomputes each point's distance to its own centroid, and rescans the
  /// points the bounds cannot settle.  Results are bit-identical to the
  /// serial path: a point's bounds and nearest centroid depend only on that
  /// point and the centroids, and all floating-point reductions run in a
  /// fixed order (inertia and centroid sums serially in point order, the
  /// seeding totals in 16 canonical lanes).  Seeding runs on the calling
  /// thread.  Null runs everything on the calling thread.
  runtime::ThreadPool* pool = nullptr;
};

struct KMeansResult {
  linalg::Matrix centroids;             ///< k x d, float32 values.
  std::vector<std::size_t> assignment;  ///< Row -> centroid index, size n.
  std::vector<std::uint64_t> counts;    ///< Cluster membership counts, size k.
  double inertia = 0.0;                 ///< Sum of squared distances.
  std::size_t iterations = 0;
};

/// Clusters the rows of `x` into k groups at float32 precision: the rows
/// are rounded to float, distances are float, and each centroid is the
/// float nearest its double mean, so `centroids` holds float values that a
/// float32 summary ships without loss.  If k >= n, each row (rounded to
/// float) becomes its own centroid.  Throws std::invalid_argument for
/// k == 0 or empty x.
[[nodiscard]] KMeansResult kmeans(const linalg::Matrix& x, std::size_t k,
                                  std::mt19937_64& rng,
                                  const KMeansOptions& opts = {});

/// Nearest-centroid assignment of every row of `x` (float SoA layout)
/// against `centroids` (k x d, row-major, rounded to float): fills
/// assignment[i] / best_dist[i] through the dispatched SIMD kernel, fanning
/// out over `pool` when given.  Each point is one lane, so the bits are
/// identical across thread counts and dispatch levels.  This is the full
/// scan that kmeans()'s bounded passes reproduce bit for bit, kept as the
/// reference the bounded passes are tested against.  Throws
/// std::invalid_argument on dimension or output-size mismatch.
void assign_to_centroids(const linalg::SoaMatrix<float>& x,
                         const linalg::Matrix& centroids,
                         std::span<std::uint32_t> assignment,
                         std::span<float> best_dist,
                         runtime::ThreadPool* pool = nullptr);

}  // namespace jaal::summarize
