#include "summarize/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "attack/generators.hpp"
#include "linalg/simd.hpp"
#include "linalg/svd.hpp"
#include "runtime/thread_pool.hpp"
#include "summarize/normalize.hpp"
#include "trace/background.hpp"

namespace jaal::summarize {
namespace {

/// Three well-separated Gaussian blobs in 2D.
linalg::Matrix blobs(std::size_t per_cluster, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {10.0, 0.0}};
  linalg::Matrix x(3 * per_cluster, 2);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      x(c * per_cluster + i, 0) = centers[c][0] + noise(rng);
      x(c * per_cluster + i, 1) = centers[c][1] + noise(rng);
    }
  }
  return x;
}

// ---------------------------------------------------------------------------
// Reference: the plain Lloyd loop k-means ran before its assignment passes
// were bounded (scalar D^2 seeding, a full nearest-centroid scan every
// iteration).  The bounded implementation must reproduce it bit for bit.
namespace reference {

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

std::vector<std::size_t> seed_plus_plus(const linalg::Matrix& x, std::size_t k,
                                        std::mt19937_64& rng) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> chosen;
  chosen.push_back(rng() % n);
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (chosen.size() < k) {
    const auto last = x.row(chosen.back());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], sq_dist(x.row(i), last));
      total += d2[i];
    }
    if (total <= 0.0) {
      chosen.push_back(rng() % n);
      continue;
    }
    double target = unit(rng) * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    chosen.push_back(pick);
  }
  return chosen;
}

KMeansResult kmeans(const linalg::Matrix& x, std::size_t k,
                    std::mt19937_64& rng, const KMeansOptions& opts) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  std::vector<std::size_t> seeds;
  if (opts.init == KMeansInit::kPlusPlus) {
    seeds = seed_plus_plus(x, k, rng);
  } else {
    for (std::size_t i = 0; i < k; ++i) seeds.push_back(rng() % n);
  }
  KMeansResult res;
  res.centroids = linalg::Matrix(k, d);
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = x.row(seeds[c]);
    std::copy(src.begin(), src.end(), res.centroids.row(c).begin());
  }
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  res.assignment.assign(n, 0);
  res.counts.assign(k, 0);
  std::vector<double> best_dist(n, 0.0);
  linalg::Matrix sums(k, d);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    assign_to_centroids(xs, res.centroids, res.assignment, best_dist);
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    std::fill(sums.data().begin(), sums.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = x.row(i);
      const std::size_t best_c = res.assignment[i];
      res.inertia += best_dist[i];
      ++res.counts[best_c];
      auto sum_row = sums.row(best_c);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += row[j];
    }
    double moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      auto centroid = res.centroids.row(c);
      if (res.counts[c] == 0) continue;
      const auto sum_row = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        const double updated =
            sum_row[j] / static_cast<double>(res.counts[c]);
        moved = std::max(moved, std::abs(updated - centroid[j]));
        centroid[j] = updated;
      }
    }
    if (moved < opts.tolerance) break;
  }
  assign_to_centroids(xs, res.centroids, res.assignment, best_dist);
  res.inertia = 0.0;
  std::fill(res.counts.begin(), res.counts.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    res.inertia += best_dist[i];
    ++res.counts[res.assignment[i]];
  }
  return res;
}

KMeansResult weighted_kmeans(const linalg::Matrix& x,
                             std::span<const std::uint64_t> weights,
                             std::size_t k, std::mt19937_64& rng,
                             const KMeansOptions& opts) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  std::uint64_t total_weight = 0;
  for (std::uint64_t w : weights) total_weight += w;
  std::vector<std::size_t> seeds;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double target = unit(rng) * static_cast<double>(total_weight);
  std::size_t first = n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    target -= static_cast<double>(weights[i]);
    if (target <= 0.0) {
      first = i;
      break;
    }
  }
  seeds.push_back(first);
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  while (seeds.size() < k) {
    const auto last = x.row(seeds.back());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], sq_dist(x.row(i), last));
      total += d2[i] * static_cast<double>(weights[i]);
    }
    if (total <= 0.0) {
      seeds.push_back(rng() % n);
      continue;
    }
    double pick_target = unit(rng) * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      pick_target -= d2[i] * static_cast<double>(weights[i]);
      if (pick_target <= 0.0) {
        pick = i;
        break;
      }
    }
    seeds.push_back(pick);
  }
  KMeansResult res;
  res.centroids = linalg::Matrix(k, d);
  for (std::size_t c = 0; c < k; ++c) {
    const auto src = x.row(seeds[c]);
    std::copy(src.begin(), src.end(), res.centroids.row(c).begin());
  }
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  res.assignment.assign(n, 0);
  res.counts.assign(k, 0);
  std::vector<double> best_dist(n, 0.0);
  linalg::Matrix sums(k, d);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    assign_to_centroids(xs, res.centroids, res.assignment, best_dist);
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    std::fill(sums.data().begin(), sums.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = x.row(i);
      const std::size_t best_c = res.assignment[i];
      const double w = static_cast<double>(weights[i]);
      res.inertia += best_dist[i] * w;
      res.counts[best_c] += weights[i];
      auto sum_row = sums.row(best_c);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += row[j] * w;
    }
    double moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (res.counts[c] == 0) continue;
      auto centroid = res.centroids.row(c);
      const auto sum_row = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        const double updated =
            sum_row[j] / static_cast<double>(res.counts[c]);
        moved = std::max(moved, std::abs(updated - centroid[j]));
        centroid[j] = updated;
      }
    }
    if (moved < opts.tolerance) break;
  }
  return res;
}

}  // namespace reference

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same(const KMeansResult& want, const KMeansResult& got,
                 const std::string& label) {
  EXPECT_EQ(want.iterations, got.iterations) << label;
  EXPECT_EQ(want.assignment, got.assignment) << label;
  EXPECT_EQ(want.counts, got.counts) << label;
  EXPECT_TRUE(bit_equal(want.inertia, got.inertia))
      << label << ": inertia " << want.inertia << " vs " << got.inertia;
  ASSERT_EQ(want.centroids.rows(), got.centroids.rows()) << label;
  const auto& a = want.centroids.data();
  const auto& b = got.centroids.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(bit_equal(a[i], b[i])) << label << ": centroid element " << i;
  }
}

/// U_r of a normalized header batch: the rows the summarizer clusters in
/// the split format.
linalg::Matrix u_rows(const std::vector<packet::PacketRecord>& packets) {
  return linalg::truncated_svd(summarize::to_normalized_matrix(packets), 12)
      .u;
}

linalg::Matrix trace1_u_rows(std::size_t n, std::uint64_t seed) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), seed);
  return u_rows(trace::take(gen, n));
}

/// A SYN flood batch of n rows cycling through only `distinct` packets: D^2
/// seeding runs out of distinct rows, seeds coincide and every point ties
/// between coincident centroids.
linalg::Matrix flood_u_rows(std::size_t n, std::size_t distinct) {
  attack::AttackConfig cfg;
  cfg.victim_ip = 0x0a000001;
  cfg.seed = 3;
  attack::SynFlood flood(cfg);
  const auto unique = trace::take(flood, distinct);
  std::vector<packet::PacketRecord> packets;
  for (std::size_t i = 0; i < n; ++i) packets.push_back(unique[(i * 7) % distinct]);
  return u_rows(packets);
}

/// Points on a 5 x 5 integer grid: distinct centroids are often exactly
/// equidistant from a point, so first-index-wins ties are common.
linalg::Matrix lattice_rows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  linalg::Matrix x(n, 2);
  for (double& v : x.data()) v = static_cast<double>(rng() % 5);
  return x;
}

/// Seven 2-D blobs, a quarter of the points 25x more spread than the rest:
/// centroids drift far between iterations and points change clusters late,
/// the cases where a wrong drift bound shows.
linalg::Matrix uneven_blob_rows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  linalg::Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const double spread = i % 4 == 0 ? 5.0 : 0.2;
    x(i, 0) = static_cast<double>(i % 7) * 3.0 + spread * noise(rng);
    x(i, 1) = spread * noise(rng);
  }
  return x;
}

std::vector<linalg::simd::Level> available_levels() {
  using linalg::simd::Level;
  std::vector<Level> levels = {Level::kScalar};
  if (linalg::simd::detected() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  if (linalg::simd::detected() >= Level::kAvx512) {
    levels.push_back(Level::kAvx512);
  }
  return levels;
}

TEST(KMeans, BoundedLloydMatchesReference) {
  struct Case {
    std::string name;
    linalg::Matrix x;
    std::size_t k;
    KMeansInit init = KMeansInit::kPlusPlus;
  };
  std::vector<Case> cases;
  cases.push_back({"trace1 n=2000 k=400", trace1_u_rows(2000, 21), 400});
  cases.push_back({"trace1 n=500 k=50", trace1_u_rows(500, 22), 50});
  cases.push_back({"trace1 n=500 k=50 random init", trace1_u_rows(500, 23), 50,
                   KMeansInit::kRandom});
  cases.push_back({"syn flood n=500 distinct=16 k=50", flood_u_rows(500, 16),
                   50});
  cases.push_back({"syn flood n=300 distinct=40 k=64", flood_u_rows(300, 40),
                   64});
  cases.push_back({"trace1 n=200 k=n-1", trace1_u_rows(200, 24), 199});
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::string tag = " seed=" + std::to_string(seed);
    cases.push_back({"lattice" + tag, lattice_rows(300, seed), 6 + seed % 5});
    cases.push_back({"lattice random init" + tag, lattice_rows(300, seed), 7,
                     KMeansInit::kRandom});
    cases.push_back({"uneven blobs" + tag, uneven_blob_rows(400, seed), 20});
    cases.push_back({"uneven blobs random init" + tag,
                     uneven_blob_rows(400, seed), 12, KMeansInit::kRandom});
  }

  const linalg::simd::Level before = linalg::simd::active();
  for (const Case& c : cases) {
    const std::size_t n = c.x.rows();
    std::vector<std::uint64_t> weights(n);
    for (std::size_t i = 0; i < n; ++i) weights[i] = 1 + (i * 13) % 5;
    KMeansOptions opts;
    opts.init = c.init;
    // The reference's bits do not depend on the dispatch level.
    std::mt19937_64 ref_rng(c.k);
    const KMeansResult want = reference::kmeans(c.x, c.k, ref_rng, opts);
    std::mt19937_64 ref_wrng(c.k + 1);
    const KMeansResult want_w =
        reference::weighted_kmeans(c.x, weights, c.k, ref_wrng, opts);
    for (const auto level : available_levels()) {
      linalg::simd::force_level(level);
      for (const std::size_t threads : {0, 2, 4}) {
        std::unique_ptr<runtime::ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<runtime::ThreadPool>(threads);
        KMeansOptions pooled = opts;
        pooled.pool = pool.get();
        const std::string label =
            c.name + " level=" +
            std::string(linalg::simd::level_name(level)) +
            " threads=" + std::to_string(threads);
        std::mt19937_64 rng(c.k);
        expect_same(want, kmeans(c.x, c.k, rng, pooled), label);
        std::mt19937_64 wrng(c.k + 1);
        expect_same(want_w, weighted_kmeans(c.x, weights, c.k, wrng, pooled),
                    label + " weighted");
      }
    }
  }
  linalg::simd::force_level(before);
}

TEST(KMeans, SeedingScanIsTheFirstPass) {
  // Lloyd starts from the assignment seeding leaves behind, and its bounds
  // from seeding's runner-up distances.  Capped runs isolate that start:
  // with no iteration the final pass is the seeding scan itself, and one or
  // two iterations run the first bounded passes off seeding's bounds.
  // Coincident seeds (the flood) and lattice rows make exact ties, which the
  // earliest seed must win as in the reference's full scan.
  struct Case {
    std::string name;
    linalg::Matrix x;
    std::size_t k;
    KMeansInit init = KMeansInit::kPlusPlus;
  };
  std::vector<Case> cases;
  cases.push_back({"trace1 n=600 k=120", trace1_u_rows(600, 31), 120});
  cases.push_back({"trace1 n=300 k=40 random init", trace1_u_rows(300, 32),
                   40, KMeansInit::kRandom});
  cases.push_back({"syn flood n=400 distinct=12 k=30", flood_u_rows(400, 12),
                   30});
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::string tag = " seed=" + std::to_string(seed);
    cases.push_back({"lattice" + tag, lattice_rows(200, seed), 5 + seed});
    cases.push_back({"lattice random init" + tag, lattice_rows(200, seed), 9,
                     KMeansInit::kRandom});
  }

  const linalg::simd::Level before = linalg::simd::active();
  for (const Case& c : cases) {
    const std::size_t n = c.x.rows();
    std::vector<std::uint64_t> weights(n);
    for (std::size_t i = 0; i < n; ++i) weights[i] = 1 + (i * 7) % 3;
    for (const std::size_t iterations : {0, 1, 2}) {
      KMeansOptions opts;
      opts.init = c.init;
      opts.max_iterations = iterations;
      std::mt19937_64 ref_rng(c.k);
      const KMeansResult want = reference::kmeans(c.x, c.k, ref_rng, opts);
      std::mt19937_64 ref_wrng(c.k + 1);
      const KMeansResult want_w =
          reference::weighted_kmeans(c.x, weights, c.k, ref_wrng, opts);
      for (const auto level : available_levels()) {
        linalg::simd::force_level(level);
        const std::string label =
            c.name + " max_iterations=" + std::to_string(iterations) +
            " level=" + std::string(linalg::simd::level_name(level));
        std::mt19937_64 rng(c.k);
        expect_same(want, kmeans(c.x, c.k, rng, opts), label);
        std::mt19937_64 wrng(c.k + 1);
        expect_same(want_w, weighted_kmeans(c.x, weights, c.k, wrng, opts),
                    label + " weighted");
      }
    }
  }
  linalg::simd::force_level(before);
}

TEST(KMeans, ValidatesArguments) {
  std::mt19937_64 rng(1);
  EXPECT_THROW((void)kmeans(linalg::Matrix{}, 2, rng), std::invalid_argument);
  EXPECT_THROW((void)kmeans(blobs(5, 1), 0, rng), std::invalid_argument);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  std::mt19937_64 rng(2);
  const linalg::Matrix x = blobs(50, 2);
  const KMeansResult res = kmeans(x, 3, rng);
  ASSERT_EQ(res.centroids.rows(), 3u);
  // Each true center has a centroid within 0.5.
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {10.0, 0.0}};
  for (const auto& center : centers) {
    double best = 1e300;
    for (std::size_t c = 0; c < 3; ++c) {
      const double dx = res.centroids(c, 0) - center[0];
      const double dy = res.centroids(c, 1) - center[1];
      best = std::min(best, dx * dx + dy * dy);
    }
    EXPECT_LT(best, 0.25);
  }
  // Balanced counts.
  for (std::uint64_t count : res.counts) EXPECT_EQ(count, 50u);
}

TEST(KMeans, CountsSumToN) {
  std::mt19937_64 rng(3);
  const KMeansResult res = kmeans(blobs(40, 3), 7, rng);
  std::uint64_t total = 0;
  for (std::uint64_t c : res.counts) total += c;
  EXPECT_EQ(total, 120u);
  EXPECT_EQ(res.assignment.size(), 120u);
}

TEST(KMeans, AssignmentConsistentWithCounts) {
  std::mt19937_64 rng(4);
  const linalg::Matrix x = blobs(30, 4);
  const KMeansResult res = kmeans(x, 5, rng);
  std::vector<std::uint64_t> recount(5, 0);
  for (std::size_t a : res.assignment) {
    ASSERT_LT(a, 5u);
    ++recount[a];
  }
  EXPECT_EQ(recount, res.counts);
}

TEST(KMeans, AssignmentIsNearest) {
  std::mt19937_64 rng(5);
  const linalg::Matrix x = blobs(20, 5);
  const KMeansResult res = kmeans(x, 4, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double assigned = 0.0, best = 1e300;
    for (std::size_t c = 0; c < res.centroids.rows(); ++c) {
      double d = 0.0;
      for (std::size_t j = 0; j < x.cols(); ++j) {
        const double diff = x(i, j) - res.centroids(c, j);
        d += diff * diff;
      }
      if (c == res.assignment[i]) assigned = d;
      best = std::min(best, d);
    }
    EXPECT_NEAR(assigned, best, 1e-9);
  }
}

TEST(KMeans, KGreaterOrEqualNDegeneratesToIdentity) {
  std::mt19937_64 rng(6);
  const linalg::Matrix x = blobs(2, 6);  // 6 rows
  const KMeansResult res = kmeans(x, 10, rng);
  EXPECT_EQ(res.centroids.rows(), 6u);
  EXPECT_EQ(res.centroids, x);
  EXPECT_DOUBLE_EQ(res.inertia, 0.0);
}

TEST(KMeans, InertiaDecreasesWithMoreCentroids) {
  const linalg::Matrix x = blobs(40, 7);
  double last = 1e300;
  for (std::size_t k : {1u, 2u, 3u, 6u, 12u}) {
    std::mt19937_64 rng(7);
    const KMeansResult res = kmeans(x, k, rng);
    EXPECT_LE(res.inertia, last * 1.05) << "k=" << k;
    last = res.inertia;
  }
}

TEST(KMeans, PlusPlusBeatsRandomOnAverage) {
  // With few iterations, D^2 seeding should find lower inertia than naive
  // random seeding on clustered data (the reason the paper chose it).
  const linalg::Matrix x = blobs(60, 8);
  KMeansOptions fast;
  fast.max_iterations = 2;
  double pp_total = 0.0, rand_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng1(seed), rng2(seed);
    fast.init = KMeansInit::kPlusPlus;
    pp_total += kmeans(x, 3, rng1, fast).inertia;
    fast.init = KMeansInit::kRandom;
    rand_total += kmeans(x, 3, rng2, fast).inertia;
  }
  EXPECT_LT(pp_total, rand_total);
}

TEST(KMeans, IdenticalPointsHandled) {
  linalg::Matrix x(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 2.0;
    x(i, 2) = 3.0;
  }
  std::mt19937_64 rng(9);
  const KMeansResult res = kmeans(x, 4, rng);
  EXPECT_DOUBLE_EQ(res.inertia, 0.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : res.counts) total += c;
  EXPECT_EQ(total, 50u);
}

TEST(WeightedKMeans, ValidatesArguments) {
  std::mt19937_64 rng(1);
  const linalg::Matrix x = blobs(5, 1);
  const std::vector<std::uint64_t> wrong_size(3, 1);
  EXPECT_THROW((void)weighted_kmeans(x, wrong_size, 2, rng),
               std::invalid_argument);
  const std::vector<std::uint64_t> zeros(x.rows(), 0);
  EXPECT_THROW((void)weighted_kmeans(x, zeros, 2, rng),
               std::invalid_argument);
  const std::vector<std::uint64_t> ok(x.rows(), 1);
  EXPECT_THROW((void)weighted_kmeans(x, ok, 0, rng), std::invalid_argument);
}

TEST(WeightedKMeans, UnitWeightsMatchPlainSemantics) {
  const linalg::Matrix x = blobs(40, 12);
  const std::vector<std::uint64_t> unit(x.rows(), 1);
  std::mt19937_64 rng(12);
  const auto res = weighted_kmeans(x, unit, 3, rng);
  // Same well-separated blobs: recovered and balanced.
  for (std::uint64_t count : res.counts) EXPECT_EQ(count, 40u);
}

TEST(WeightedKMeans, CountsSumToTotalWeight) {
  const linalg::Matrix x = blobs(30, 13);
  std::vector<std::uint64_t> weights(x.rows());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + i % 7;
    total += weights[i];
  }
  std::mt19937_64 rng(13);
  const auto res = weighted_kmeans(x, weights, 5, rng);
  std::uint64_t sum = 0;
  for (std::uint64_t c : res.counts) sum += c;
  EXPECT_EQ(sum, total);
}

TEST(WeightedKMeans, HeavyPointPullsItsCentroid) {
  // Two points; one carries 99x the weight: the 1-centroid solution must
  // sit nearly on the heavy point.
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<std::uint64_t> weights = {99, 1};
  std::mt19937_64 rng(14);
  const auto res = weighted_kmeans(x, weights, 1, rng);
  EXPECT_NEAR(res.centroids(0, 0), 0.01, 1e-9);
}

TEST(WeightedKMeans, KGreaterEqualNReturnsRowsWithWeights) {
  const linalg::Matrix x = blobs(2, 15);  // 6 rows
  const std::vector<std::uint64_t> weights = {1, 2, 3, 4, 5, 6};
  std::mt19937_64 rng(15);
  const auto res = weighted_kmeans(x, weights, 10, rng);
  EXPECT_EQ(res.centroids.rows(), 6u);
  EXPECT_EQ(res.counts, weights);
}

TEST(KMeans, DeterministicGivenRngState) {
  const linalg::Matrix x = blobs(30, 10);
  std::mt19937_64 rng1(11), rng2(11);
  const KMeansResult a = kmeans(x, 4, rng1);
  const KMeansResult b = kmeans(x, 4, rng2);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace jaal::summarize
