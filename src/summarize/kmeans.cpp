#include "summarize/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

using Points = linalg::SoaMatrix<float>;

/// Below this many points the fan-out overhead exceeds the win; the output
/// is identical either way, so the cutoff only affects speed.
constexpr std::size_t kParallelAssignMin = 128;

/// Points per pool task in the assignment step.  Blocks keep the SIMD
/// kernel fed with long runs; lanes are independent points, so any block
/// decomposition yields identical bits.
constexpr std::size_t kAssignBlock = 512;

/// Relative slack on every Hamerly bound, for d fields.  A computed
/// squared distance is float arithmetic: one rounding in each difference
/// (twice over once squared), one in each square and d - 1 in the sum, so
/// it is within (d + 2) * 2^-24 of the exact squared distance between the
/// stored floats, and its square root within half that.  The slack is
/// eight times the root's error, and dwarfs the double rounding of drifts
/// and bound updates (~2^-53).
[[nodiscard]] double bound_slack(std::size_t d) noexcept {
  return 4.0 * static_cast<double>(d + 2) * 0x1p-24;
}

/// Absolute floor of the prune margin: float squares below ~1e-38 lose
/// relative precision (subnormal) and underflow, so distances under ~1e-19
/// cannot be trusted to order points.
constexpr double kUnderflowFloor = 1e-15;

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

/// |x_i - c|^2 with one nearest_centroids lane's arithmetic: float
/// x[j] - c[j], squares summed in j order, no contraction.  Equal to the
/// kernel's bits.
[[nodiscard]] float lane_sq_dist(const Points& xs, std::size_t i,
                                 const float* c) noexcept {
  float acc = 0.0f;
  for (std::size_t j = 0; j < xs.cols(); ++j) {
    const float diff = xs(i, j) - c[j];
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
  Seeding(std::size_t n, std::size_t k, std::size_t d)
      : nearest(n, 0),
        d2(n, std::numeric_limits<float>::max()),
        second(n, std::numeric_limits<float>::max()) {
    centres.reserve(k * d);
  }

  /// Appends row `row` of xs as the next seed and folds it into every
  /// point's state; returns sum_i d2[i] over the seeds so far.
  double add(const Points& xs, std::size_t row) {
    const std::size_t d = xs.cols();
    const std::size_t c = count++;
    for (std::size_t j = 0; j < d; ++j) centres.push_back(xs(row, j));
    return linalg::simd::seed_update(
        xs.data(), xs.stride(), d, centres.data() + c * d,
        static_cast<std::uint32_t>(c), xs.rows(), d2.data(), nearest.data(),
        second.data());
  }

  std::size_t count = 0;        ///< Seeds so far.
  std::vector<float> centres;   ///< The seed rows, row-major count x d.
  std::vector<std::uint32_t> nearest;
  std::vector<float> d2;
  std::vector<float> second;
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
  BoundedAssigner(const Points& xs, runtime::ThreadPool* pool,
                  Seeding seeding)
      : xs_(xs),
        pool_(pool),
        slack_(bound_slack(xs.cols())),
        lower_(xs.rows()),
        first_assignment_(std::move(seeding.nearest)),
        first_dist_(std::move(seeding.d2)),
        pack_(((xs.rows() + kAssignBlock - 1) / kAssignBlock) * kAssignBlock *
              xs.cols()) {
    for (std::size_t i = 0; i < xs.rows(); ++i) {
      lower_[i] = std::sqrt(double{seeding.second[i]}) * (1.0 - slack_);
    }
    // Centroids are means of points, so every distance and drift the bounds
    // track is at most the bounding-box diagonal; bound arithmetic rounds
    // off a few ulps of that per pass.
    double diag2 = 0.0;
    for (std::size_t j = 0; j < xs.cols(); ++j) {
      const auto col = xs.col_span(j);
      const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
      const double extent = double{*hi} - double{*lo};
      diag2 += extent * extent;
    }
    margin_ = slack_ * std::sqrt(diag2) + kUnderflowFloor;
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

  /// `centroids` is row-major k x d.
  void assign(const std::vector<float>& centroids,
              std::vector<std::uint32_t>& assignment,
              std::vector<float>& best_dist) {
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
                    const std::vector<float>& centroids,
                    std::vector<std::uint32_t>& assignment,
                    std::vector<float>& best_dist) {
    const std::size_t d = xs_.cols();
    float* pack = pack_.data() + b * kAssignBlock * d;
    std::size_t rescan[kAssignBlock];
    std::size_t m = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t a = assignment[i];
      const double lower =
          lower_[i] - (a == max_c_ ? runner_drift_ : max_drift_);
      const float dist = lane_sq_dist(xs_, i, centroids.data() + a * d);
      lower_[i] = lower;
      best_dist[i] = dist;
      if (std::sqrt(double{dist}) * (1.0 + slack_) + margin_ < lower) {
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) pack[j * kAssignBlock + m] = xs_(i, j);
      rescan[m++] = i;
    }
    if (m == 0) return;
    std::uint32_t nearest[kAssignBlock];
    float best[kAssignBlock];
    float second[kAssignBlock];
    linalg::simd::nearest_centroids(pack, kAssignBlock, d, centroids.data(),
                                    centroids.size() / d, 0, m, nearest, best,
                                    second);
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t i = rescan[p];
      assignment[i] = nearest[p];
      best_dist[i] = best[p];
      lower_[i] = std::sqrt(double{second[p]}) * (1.0 - slack_);
    }
  }

  const Points& xs_;
  runtime::ThreadPool* pool_;
  double slack_;               ///< bound_slack(d).
  std::vector<double> lower_;  ///< Per point: bound on any other centroid.
  /// The seeding scan, until the first assign() hands it out.
  std::vector<std::uint32_t> first_assignment_;
  std::vector<float> first_dist_;
  std::vector<float> pack_;    ///< Per block: SoA copy of its rescans.
  double margin_ = 0.0;        ///< Absolute slack of the prune test.
  double max_drift_ = 0.0;
  double runner_drift_ = 0.0;  ///< Largest drift of the other centroids.
  std::size_t max_c_ = 0;
};

/// k-means++ D^2 seeding from a given first centre: each next centre is row
/// i with probability proportional to its squared distance to the closest
/// centre so far.  The distance update and the total are one dispatched
/// kernel; the pick walks the points serially in point order.  The last
/// seed gets its update too, with no pick, so the returned state is the
/// full scan against all k seeds.
Seeding seed_d2(const Points& xs, std::size_t first, std::size_t k,
                std::mt19937_64& rng) {
  const std::size_t n = xs.rows();
  Seeding seeding(n, k, xs.cols());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double total = seeding.add(xs, first);
  while (seeding.count < k) {
    std::size_t pick = n - 1;
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick arbitrarily.
      pick = rng() % n;
    } else {
      double target = unit(rng) * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= seeding.d2[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    total = seeding.add(xs, pick);
  }
  return seeding;
}

Seeding seed_random(const Points& xs, std::size_t k, std::mt19937_64& rng) {
  Seeding seeding(xs.rows(), k, xs.cols());
  for (std::size_t i = 0; i < k; ++i) {
    (void)seeding.add(xs, rng() % xs.rows());
  }
  return seeding;
}

/// Lloyd's loop from the seeds.  The assignment step is the bounded pass;
/// inertia, counts and centroid sums stay double and serial in point order,
/// and each updated centroid is float(sum / count).  The first assignment
/// is the seeding scan.  A final assignment after the loop makes
/// assignment, counts and inertia describe the returned centroids.
KMeansResult lloyd(const Points& xs, Seeding seeding,
                   const KMeansOptions& opts) {
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  const std::size_t k = seeding.count;
  const double slack = bound_slack(d);
  std::vector<float> centroids = std::move(seeding.centres);
  std::vector<std::uint32_t> assignment(n, 0);
  std::vector<float> best_dist(n, 0.0f);
  std::vector<double> drift(k, 0.0);
  std::vector<double> sums(k * d);
  KMeansResult res;
  res.counts.assign(k, 0);
  BoundedAssigner assigner(xs, opts.pool, std::move(seeding));

  const auto tally = [&](bool with_sums) {
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      res.inertia += best_dist[i];
      ++res.counts[assignment[i]];
    }
    if (!with_sums) return;
    // Column by column: each sum still adds its points in point order.
    std::fill(sums.begin(), sums.end(), 0.0);
    for (std::size_t j = 0; j < d; ++j) {
      const float* col = xs.col(j);
      for (std::size_t i = 0; i < n; ++i) sums[assignment[i] * d + j] += col[i];
    }
  };

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    assigner.assign(centroids, assignment, best_dist);
    tally(true);
    // Update step; each centroid's drift feeds the next pass's bounds.
    double moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      drift[c] = 0.0;
      if (res.counts[c] == 0) continue;  // empty cluster keeps its centroid
      float* centroid = centroids.data() + c * d;
      const double* sum_row = sums.data() + c * d;
      double drift2 = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const float updated = static_cast<float>(
            sum_row[j] / static_cast<double>(res.counts[c]));
        const double step = double{updated} - double{centroid[j]};
        moved = std::max(moved, std::abs(step));
        drift2 += step * step;
        centroid[j] = updated;
      }
      // Rounded outward; NaN drifts become infinite so they void every
      // bound instead of slipping past the comparisons.
      drift[c] = std::isnan(drift2) ? std::numeric_limits<double>::infinity()
                                    : std::sqrt(drift2) * (1.0 + slack);
    }
    assigner.centroids_moved(drift);
    if (moved < opts.tolerance) break;
  }

  assigner.assign(centroids, assignment, best_dist);
  tally(false);
  res.centroids = linalg::Matrix(k, d);
  std::copy(centroids.begin(), centroids.end(), res.centroids.data().begin());
  res.assignment.assign(assignment.begin(), assignment.end());
  return res;
}

}  // namespace

void assign_to_centroids(const linalg::SoaMatrix<float>& x,
                         const linalg::Matrix& centroids,
                         std::span<std::uint32_t> assignment,
                         std::span<float> best_dist,
                         runtime::ThreadPool* pool) {
  const std::size_t n = x.rows();
  const std::size_t k = centroids.rows();
  if (centroids.cols() != x.cols()) {
    throw std::invalid_argument("assign_to_centroids: dimension mismatch");
  }
  if (assignment.size() != n || best_dist.size() != n) {
    throw std::invalid_argument("assign_to_centroids: output size mismatch");
  }
  const std::vector<float> rows(centroids.data().begin(),
                                centroids.data().end());
  for_each_block(n, pool, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    float second[kAssignBlock];
    linalg::simd::nearest_centroids(
        x.data() + begin, x.stride(), x.cols(), rows.data(), k, 0,
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
    // Degenerate case: every packet is its own representative, at the
    // float32 precision every other centroid has.
    KMeansResult res;
    res.centroids = x;
    for (double& v : res.centroids.data()) v = static_cast<float>(v);
    res.assignment.resize(n);
    res.counts.assign(n, 1);
    for (std::size_t i = 0; i < n; ++i) res.assignment[i] = i;
    return res;
  }

  // One float SoA conversion per call; seeding and every assignment pass
  // read the same column-major copy.
  const Points xs = Points::from_rows(x);
  Seeding seeding = opts.init == KMeansInit::kPlusPlus
                        ? seed_d2(xs, rng() % n, k, rng)
                        : seed_random(xs, k, rng);
  return lloyd(xs, std::move(seeding), opts);
}

}  // namespace jaal::summarize
