#include "summarize/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/simd.hpp"
#include "runtime/thread_pool.hpp"

// Compiled with -ffp-contract=off (see src/CMakeLists.txt): the bounded
// assignment recomputes a pruned point's distance here, and those bits must
// be the ones the simd.cpp kernels produce for the same lane.

namespace jaal::summarize {
namespace {

/// Below this many points the fan-out overhead exceeds the win; the output
/// is identical either way, so the cutoff only affects speed.
constexpr std::size_t kParallelAssignMin = 128;

/// Points per pool task in the assignment step.  Blocks keep the SIMD
/// kernel fed with long runs; lanes are independent points, so any block
/// decomposition yields identical bits.
constexpr std::size_t kAssignBlock = 512;

/// Relative slack on every Hamerly bound.  Rounding in a computed distance,
/// drift or bound update is ~d * 2^-53 relative; 1e-9 dwarfs it, so a bound
/// that passes the prune test with this slack holds for the exact values.
constexpr double kBoundSlack = 1e-9;

/// Absolute floor of the prune margin: squared differences below ~1e-154
/// underflow, so distances under this cannot be trusted to order points.
constexpr double kUnderflowFloor = 1e-150;

/// Runs body(block, begin, end) over kAssignBlock-point blocks of [0, n),
/// fanned out over `pool` when there is one and the batch is large enough.
template <class Body>
void for_each_block(std::size_t n, runtime::ThreadPool* pool, Body&& body) {
  const std::size_t blocks = (n + kAssignBlock - 1) / kAssignBlock;
  const auto run = [&](std::size_t b) {
    body(b, b * kAssignBlock, std::min(n, (b + 1) * kAssignBlock));
  };
  if (pool != nullptr && n >= kParallelAssignMin) {
    pool->parallel_for(0, blocks, run);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run(b);
  }
}

/// |x_i - c|^2 with one nearest_centroids lane's arithmetic: x[j] - c[j],
/// squares summed in j order, no contraction.  Equal to the kernel's bits.
[[nodiscard]] double lane_sq_dist(const linalg::SoaMatrix& xs, std::size_t i,
                                  std::span<const double> c) noexcept {
  double acc = 0.0;
  for (std::size_t j = 0; j < c.size(); ++j) {
    const double diff = xs(i, j) - c[j];
    acc += diff * diff;
  }
  return acc;
}

/// Seeds plus the result of a full nearest-centroid scan against them:
/// nearest[i], d2[i] and second[i] are the assignment, best_dist and
/// second_dist that nearest_centroids returns for the seed rows.
/// seed_update builds them while it seeds, so Lloyd's first assignment
/// pass is already done when seeding ends.
struct Seeding {
  Seeding(std::size_t n, std::size_t k)
      : nearest(n, 0),
        d2(n, std::numeric_limits<double>::max()),
        second(n, std::numeric_limits<double>::max()) {
    seeds.reserve(k);
  }

  /// Appends row `row` of x as the next seed and folds it into every
  /// point's state; returns sum_i d2[i] * w[i] over the seeds so far.
  double add(const linalg::Matrix& x, const linalg::SoaMatrix& xs,
             std::span<const double> w, std::size_t row) {
    seeds.push_back(row);
    return linalg::simd::seed_update(xs.data(), xs.stride(), xs.cols(),
                                     x.row(row).data(), seeds.size() - 1,
                                     w.data(), xs.rows(), d2.data(),
                                     nearest.data(), second.data());
  }

  std::vector<std::size_t> seeds;
  std::vector<std::size_t> nearest;
  std::vector<double> d2;
  std::vector<double> second;
};

/// Exact nearest-centroid assignment with Hamerly's bounds (Hamerly 2010).
/// Every point keeps a lower bound on its distance to any centroid other
/// than its own; after a centroid update the bound drops by the largest
/// drift among those others.  A pass recomputes each point's distance to its
/// own centroid exactly (that is the returned best_dist) and rescans only
/// the points whose bounds cannot prove that centroid strictly nearest.  The
/// first pass is the seeding scan itself (the centroids are still the seed
/// rows), and the bounds start from its runner-up distances.  The prune
/// test carries relative and absolute slack, so a tie or near tie always
/// takes the full first-index-wins scan: the output is bit-identical to
/// assign_to_centroids().
class BoundedAssigner {
 public:
  BoundedAssigner(const linalg::SoaMatrix& xs, runtime::ThreadPool* pool,
                  Seeding seeding)
      : xs_(xs),
        pool_(pool),
        lower_(xs.rows()),
        first_assignment_(std::move(seeding.nearest)),
        first_dist_(std::move(seeding.d2)),
        pack_(((xs.rows() + kAssignBlock - 1) / kAssignBlock) * kAssignBlock *
              xs.cols()) {
    for (std::size_t i = 0; i < xs.rows(); ++i) {
      lower_[i] = std::sqrt(seeding.second[i]) * (1.0 - kBoundSlack);
    }
    // Centroids are means of points, so every distance and drift the bounds
    // track is at most the bounding-box diagonal; bound arithmetic rounds
    // off a few ulps of that per pass.
    double diag2 = 0.0;
    for (std::size_t j = 0; j < xs.cols(); ++j) {
      const auto col = xs.col_span(j);
      const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
      diag2 += (*hi - *lo) * (*hi - *lo);
    }
    margin_ = kBoundSlack * std::sqrt(diag2) + kUnderflowFloor;
  }

  /// Records how far each centroid moved (outward-rounded, one per
  /// centroid) since the last pass.
  void centroids_moved(std::span<const double> drift) {
    max_drift_ = 0.0;
    runner_drift_ = 0.0;
    for (std::size_t c = 0; c < drift.size(); ++c) {
      if (drift[c] > max_drift_) {
        runner_drift_ = max_drift_;
        max_drift_ = drift[c];
        max_c_ = c;
      } else if (drift[c] > runner_drift_) {
        runner_drift_ = drift[c];
      }
    }
  }

  void assign(const linalg::Matrix& centroids,
              std::vector<std::size_t>& assignment,
              std::vector<double>& best_dist) {
    if (!first_assignment_.empty()) {
      // The centroids are still the seeds: hand out the seeding scan.
      assignment = std::move(first_assignment_);
      best_dist = std::move(first_dist_);
      first_assignment_.clear();
      return;
    }
    for_each_block(xs_.rows(), pool_,
                   [&](std::size_t b, std::size_t begin, std::size_t end) {
                     assign_block(b, begin, end, centroids, assignment,
                                  best_dist);
                   });
  }

 private:
  void assign_block(std::size_t b, std::size_t begin, std::size_t end,
                    const linalg::Matrix& centroids,
                    std::vector<std::size_t>& assignment,
                    std::vector<double>& best_dist) {
    const std::size_t d = xs_.cols();
    double* pack = pack_.data() + b * kAssignBlock * d;
    std::size_t rescan[kAssignBlock];
    std::size_t m = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t a = assignment[i];
      const double lower =
          lower_[i] - (a == max_c_ ? runner_drift_ : max_drift_);
      const double dist = lane_sq_dist(xs_, i, centroids.row(a));
      lower_[i] = lower;
      best_dist[i] = dist;
      if (std::sqrt(dist) * (1.0 + kBoundSlack) + margin_ < lower) continue;
      for (std::size_t j = 0; j < d; ++j) pack[j * kAssignBlock + m] = xs_(i, j);
      rescan[m++] = i;
    }
    if (m == 0) return;
    std::size_t nearest[kAssignBlock];
    double best[kAssignBlock];
    double second[kAssignBlock];
    linalg::simd::nearest_centroids(pack, kAssignBlock, d,
                                    centroids.data().data(), centroids.rows(),
                                    0, m, nearest, best, second);
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t i = rescan[p];
      assignment[i] = nearest[p];
      best_dist[i] = best[p];
      lower_[i] = std::sqrt(second[p]) * (1.0 - kBoundSlack);
    }
  }

  const linalg::SoaMatrix& xs_;
  runtime::ThreadPool* pool_;
  std::vector<double> lower_;  ///< Per point: bound on any other centroid.
  /// The seeding scan, until the first assign() hands it out.
  std::vector<std::size_t> first_assignment_;
  std::vector<double> first_dist_;
  std::vector<double> pack_;   ///< Per block: SoA copy of its rescans.
  double margin_ = 0.0;        ///< Absolute slack of the prune test.
  double max_drift_ = 0.0;
  double runner_drift_ = 0.0;  ///< Largest drift of the other centroids.
  std::size_t max_c_ = 0;
};

/// D^2 seeding from a given first centre: each next centre is row i with
/// probability proportional to w[i] x squared distance to the closest
/// centre so far (plain k-means++ with unit weights).  The distance update
/// and the weighted total are one dispatched kernel; the total and the pick
/// stay serial in point order.  The last seed gets its update too, with no
/// pick, so the returned state is the full scan against all k seeds.
Seeding seed_d2(const linalg::Matrix& x, const linalg::SoaMatrix& xs,
                std::span<const double> w, std::size_t first, std::size_t k,
                std::mt19937_64& rng) {
  const std::size_t n = x.rows();
  Seeding seeding(n, k);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double total = seeding.add(x, xs, w, first);
  while (seeding.seeds.size() < k) {
    std::size_t pick = n - 1;
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick arbitrarily.
      pick = rng() % n;
    } else {
      double target = unit(rng) * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= seeding.d2[i] * w[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    total = seeding.add(x, xs, w, pick);
  }
  return seeding;
}

Seeding seed_random(const linalg::Matrix& x, const linalg::SoaMatrix& xs,
                    std::span<const double> w, std::size_t k,
                    std::mt19937_64& rng) {
  Seeding seeding(x.rows(), k);
  for (std::size_t i = 0; i < k; ++i) {
    (void)seeding.add(x, xs, w, rng() % x.rows());
  }
  return seeding;
}

/// The one Lloyd loop behind kmeans() and weighted_kmeans().  Row i counts
/// `weights[i]` times (`w` is the same as doubles); unit weights reproduce
/// the unweighted sums bit for bit, since x * 1.0 and += 1 are exact.  The
/// assignment step is the bounded pass; inertia, counts and centroid sums
/// stay serial in point order.  The first assignment is the seeding scan.
/// With `final_pass`, one more assignment makes assignment, counts and
/// inertia describe the returned centroids; without it they describe the
/// last iteration's pre-update centroids.
KMeansResult lloyd(const linalg::Matrix& x, const linalg::SoaMatrix& xs,
                   std::span<const std::uint64_t> weights,
                   std::span<const double> w, Seeding seeding,
                   const KMeansOptions& opts, bool final_pass) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = seeding.seeds.size();
  KMeansResult res;
  res.centroids = linalg::Matrix(k, d);
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = x.row(seeding.seeds[c]);
    std::copy(src.begin(), src.end(), res.centroids.row(c).begin());
  }
  res.assignment.assign(n, 0);
  res.counts.assign(k, 0);
  std::vector<double> best_dist(n, 0.0);
  std::vector<double> drift(k, 0.0);
  linalg::Matrix sums(k, d);
  BoundedAssigner assigner(xs, opts.pool, std::move(seeding));

  const auto tally = [&](bool with_sums) {
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    if (with_sums) std::fill(sums.data().begin(), sums.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t best_c = res.assignment[i];
      res.inertia += best_dist[i] * w[i];
      res.counts[best_c] += weights[i];
      if (!with_sums) continue;
      const auto row = x.row(i);
      auto sum_row = sums.row(best_c);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += row[j] * w[i];
    }
  };

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    assigner.assign(res.centroids, res.assignment, best_dist);
    tally(true);
    // Update step; each centroid's drift feeds the next pass's bounds.
    double moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      drift[c] = 0.0;
      if (res.counts[c] == 0) continue;  // empty cluster keeps its centroid
      auto centroid = res.centroids.row(c);
      const auto sum_row = sums.row(c);
      double drift2 = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double updated =
            sum_row[j] / static_cast<double>(res.counts[c]);
        const double step = updated - centroid[j];
        moved = std::max(moved, std::abs(step));
        drift2 += step * step;
        centroid[j] = updated;
      }
      // Rounded outward; NaN drifts become infinite so they void every
      // bound instead of slipping past the comparisons.
      drift[c] = std::isnan(drift2)
                     ? std::numeric_limits<double>::infinity()
                     : std::sqrt(drift2) * (1.0 + kBoundSlack);
    }
    assigner.centroids_moved(drift);
    if (moved < opts.tolerance) break;
  }

  if (final_pass) {
    assigner.assign(res.centroids, res.assignment, best_dist);
    tally(false);
  }
  return res;
}

}  // namespace

void assign_to_centroids(const linalg::SoaMatrix& x,
                         const linalg::Matrix& centroids,
                         std::span<std::size_t> assignment,
                         std::span<double> best_dist,
                         runtime::ThreadPool* pool) {
  const std::size_t n = x.rows();
  const std::size_t k = centroids.rows();
  if (centroids.cols() != x.cols()) {
    throw std::invalid_argument("assign_to_centroids: dimension mismatch");
  }
  if (assignment.size() != n || best_dist.size() != n) {
    throw std::invalid_argument("assign_to_centroids: output size mismatch");
  }
  for_each_block(n, pool, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    double second[kAssignBlock];
    linalg::simd::nearest_centroids(
        x.data() + begin, x.stride(), x.cols(), centroids.data().data(), k, 0,
        end - begin, assignment.data() + begin, best_dist.data() + begin,
        second);
  });
}

KMeansResult kmeans(const linalg::Matrix& x, std::size_t k,
                    std::mt19937_64& rng, const KMeansOptions& opts) {
  if (k == 0) throw std::invalid_argument("kmeans: k must be positive");
  if (x.empty()) throw std::invalid_argument("kmeans: empty input");
  const std::size_t n = x.rows();

  if (k >= n) {
    // Degenerate case: every packet is its own representative.
    KMeansResult res;
    res.centroids = x;
    res.assignment.resize(n);
    res.counts.assign(n, 1);
    for (std::size_t i = 0; i < n; ++i) res.assignment[i] = i;
    return res;
  }

  // One SoA conversion per call; seeding and every assignment pass read the
  // same column-major copy.
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  const std::vector<std::uint64_t> unit_counts(n, 1);
  const std::vector<double> unit(n, 1.0);
  Seeding seeding = opts.init == KMeansInit::kPlusPlus
                        ? seed_d2(x, xs, unit, rng() % n, k, rng)
                        : seed_random(x, xs, unit, k, rng);
  return lloyd(x, xs, unit_counts, unit, std::move(seeding), opts,
               /*final_pass=*/true);
}

KMeansResult weighted_kmeans(const linalg::Matrix& x,
                             std::span<const std::uint64_t> weights,
                             std::size_t k, std::mt19937_64& rng,
                             const KMeansOptions& opts) {
  if (k == 0) throw std::invalid_argument("weighted_kmeans: k must be positive");
  if (x.empty()) throw std::invalid_argument("weighted_kmeans: empty input");
  if (weights.size() != x.rows()) {
    throw std::invalid_argument("weighted_kmeans: weights/rows mismatch");
  }
  const std::size_t n = x.rows();
  std::uint64_t total_weight = 0;
  for (std::uint64_t w : weights) total_weight += w;
  if (total_weight == 0) {
    throw std::invalid_argument("weighted_kmeans: zero total weight");
  }

  if (k >= n) {
    KMeansResult res;
    res.centroids = x;
    res.assignment.resize(n);
    res.counts.assign(weights.begin(), weights.end());
    for (std::size_t i = 0; i < n; ++i) res.assignment[i] = i;
    return res;
  }

  // Weighted D^2 seeding (the weighted k-means++ generalization), from a
  // weight-proportional first seed.
  const std::vector<double> w(weights.begin(), weights.end());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double target = unit(rng) * static_cast<double>(total_weight);
  std::size_t first = n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    target -= w[i];
    if (target <= 0.0) {
      first = i;
      break;
    }
  }
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  return lloyd(x, xs, weights, w, seed_d2(x, xs, w, first, k, rng), opts,
               /*final_pass=*/false);
}

}  // namespace jaal::summarize
