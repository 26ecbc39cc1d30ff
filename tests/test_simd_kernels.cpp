// The determinism contract of linalg/simd.hpp: every kernel, at every
// dispatch level this host can run, produces bit-identical output to the
// scalar path — and therefore the whole seeded summarization pipeline is
// byte-identical with the kernels on or off, and across thread counts.
#include "linalg/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "linalg/soa.hpp"
#include "linalg/svd.hpp"
#include "simd_levels.hpp"
#include "runtime/thread_pool.hpp"
#include "summarize/kmeans.hpp"
#include "summarize/summarizer.hpp"
#include "summarize/summary.hpp"
#include "trace/background.hpp"

namespace jaal::linalg::simd {
namespace {

using test::available_levels;
using test::ForcedLevel;

/// Odd lengths on purpose: every kernel has a vector body + scalar tail,
/// and the tail path is where determinism bugs hide.
constexpr std::size_t kSizes[] = {1, 3, 4, 7, 8, 15, 16, 17, 31, 64, 101};

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SimdKernels, LevelPlumbing) {
  EXPECT_GE(detected(), Level::kScalar);
  {
    ForcedLevel pin(Level::kScalar);
    EXPECT_EQ(active(), Level::kScalar);
    EXPECT_EQ(level_name(active()), "scalar");
  }
  // force_level clamps to what the host supports.
  const Level clamped = force_level(Level::kAvx512);
  EXPECT_LE(clamped, detected());
  force_level(detected());
  EXPECT_EQ(active(), detected());
}

TEST(SimdKernels, DotBitIdenticalAcrossLevels) {
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, 11 + n);
    const auto b = random_vec(n, 23 + n);
    ForcedLevel pin(Level::kScalar);
    const double want = dot(a.data(), b.data(), n);
    for (const Level level : available_levels()) {
      force_level(level);
      EXPECT_TRUE(bit_equal(want, dot(a.data(), b.data(), n)))
          << "n=" << n << " level=" << level_name(level);
    }
  }
}

TEST(SimdKernels, PairDotsBitIdenticalAcrossLevels) {
  for (const std::size_t n : kSizes) {
    const auto a = random_vec(n, 31 + n);
    const auto b = random_vec(n, 47 + n);
    ForcedLevel pin(Level::kScalar);
    const PairDots want = pair_dots(a.data(), b.data(), n);
    for (const Level level : available_levels()) {
      force_level(level);
      const PairDots got = pair_dots(a.data(), b.data(), n);
      EXPECT_TRUE(bit_equal(want.alpha, got.alpha)) << "n=" << n;
      EXPECT_TRUE(bit_equal(want.beta, got.beta)) << "n=" << n;
      EXPECT_TRUE(bit_equal(want.gamma, got.gamma)) << "n=" << n;
    }
  }
}

TEST(SimdKernels, PairDotsMatchesSeparateDots) {
  const std::size_t n = 33;
  const auto a = random_vec(n, 3);
  const auto b = random_vec(n, 5);
  const PairDots d = pair_dots(a.data(), b.data(), n);
  EXPECT_TRUE(bit_equal(d.alpha, dot(a.data(), a.data(), n)));
  EXPECT_TRUE(bit_equal(d.beta, dot(b.data(), b.data(), n)));
  EXPECT_TRUE(bit_equal(d.gamma, dot(a.data(), b.data(), n)));
}

TEST(SimdKernels, RotatePairBitIdenticalAcrossLevels) {
  const double cs = 0.8, sn = 0.6;
  for (const std::size_t n : kSizes) {
    const auto a0 = random_vec(n, 7 + n);
    const auto b0 = random_vec(n, 13 + n);
    ForcedLevel pin(Level::kScalar);
    auto a_want = a0;
    auto b_want = b0;
    rotate_pair(a_want.data(), b_want.data(), n, cs, sn);
    for (const Level level : available_levels()) {
      force_level(level);
      auto a = a0;
      auto b = b0;
      rotate_pair(a.data(), b.data(), n, cs, sn);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(a_want[i], a[i])) << "n=" << n << " i=" << i;
        EXPECT_TRUE(bit_equal(b_want[i], b[i])) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, NearestCentroidsBitIdenticalAcrossLevels) {
  const std::size_t d = 18;
  for (const std::size_t n : kSizes) {
    for (const std::size_t k : {1ul, 3ul, 17ul}) {
      Matrix rows(n, d);
      std::mt19937_64 rng(n * 100 + k);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      for (double& v : rows.data()) v = unit(rng);
      const SoaMatrix x = SoaMatrix::from_rows(rows);
      Matrix centroids(k, d);
      for (double& v : centroids.data()) v = unit(rng);

      ForcedLevel pin(Level::kScalar);
      std::vector<std::size_t> assign_want(n);
      std::vector<double> dist_want(n);
      std::vector<double> second_want(n);
      nearest_centroids(x.data(), x.stride(), d, centroids.data().data(), k,
                        0, n, assign_want.data(), dist_want.data(),
                        second_want.data());
      for (const Level level : available_levels()) {
        force_level(level);
        std::vector<std::size_t> assign(n);
        std::vector<double> dist(n);
        std::vector<double> second(n);
        nearest_centroids(x.data(), x.stride(), d, centroids.data().data(), k,
                          0, n, assign.data(), dist.data(), second.data());
        EXPECT_EQ(assign_want, assign)
            << "n=" << n << " k=" << k << " level=" << level_name(level);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(bit_equal(dist_want[i], dist[i])) << "i=" << i;
          EXPECT_TRUE(bit_equal(second_want[i], second[i])) << "i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernels, NearestCentroidsFirstIndexWinsTies) {
  // Two identical centroids: the scalar scan picks the first; every level
  // must agree, and the runner-up distance equals the best one.
  const std::size_t d = 4, n = 9, k = 3;
  Matrix rows(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) rows(i, j) = 0.5;
  }
  const SoaMatrix x = SoaMatrix::from_rows(rows);
  Matrix centroids(k, d);  // all zero -> all ties
  for (const Level level : available_levels()) {
    ForcedLevel pin(level);
    std::vector<std::size_t> assign(n, 99);
    std::vector<double> dist(n);
    std::vector<double> second(n);
    nearest_centroids(x.data(), x.stride(), d, centroids.data().data(), k, 0,
                      n, assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 0u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(dist[i], 1.0)) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 1.0)) << "level=" << level_name(level);
    }
  }

  // Duplicates of the nearest centroid at a later index, and a distinct
  // runner-up before it: the first copy wins and the second output is the
  // duplicate's (equal) distance, not the farther centroid's.  With one
  // centroid there is no runner-up and the second output stays DBL_MAX.
  Matrix mixed(4, d);
  for (std::size_t j = 0; j < d; ++j) {
    mixed(0, j) = 2.0;   // distance^2 4 * 1.5^2 = 9
    mixed(1, j) = 0.25;  // nearest: 4 * 0.25^2 = 0.25
    mixed(2, j) = 1.5;   // 4
    mixed(3, j) = 0.25;  // duplicate of the nearest
  }
  for (const Level level : available_levels()) {
    ForcedLevel pin(level);
    std::vector<std::size_t> assign(n, 99);
    std::vector<double> dist(n);
    std::vector<double> second(n);
    nearest_centroids(x.data(), x.stride(), d, mixed.data().data(), 4, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 1u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(dist[i], 0.25)) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 0.25)) << "level=" << level_name(level);
    }
    // Without the duplicate the runner-up is centroid 2.
    nearest_centroids(x.data(), x.stride(), d, mixed.data().data(), 3, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 1u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 4.0)) << "level=" << level_name(level);
    }
    nearest_centroids(x.data(), x.stride(), d, mixed.data().data(), 1, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 0u) << "level=" << level_name(level);
      EXPECT_EQ(second[i], std::numeric_limits<double>::max());
    }
  }
}

TEST(SimdKernels, SeedUpdateBitIdenticalAcrossLevels) {
  // Against the scalar seeder's own loop: d2[i] = min(d2[i], |x_i - c|^2)
  // over row-major rows, squares summed in field order, and the total
  // summed in point order.
  const std::size_t d = 12;
  for (const std::size_t n : kSizes) {
    Matrix rows(n, d);
    std::mt19937_64 rng(n * 31 + 7);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    for (double& v : rows.data()) v = unit(rng);
    // Repeat a row so a centre lands on a duplicate (distance exactly 0).
    if (n > 2) {
      for (std::size_t j = 0; j < d; ++j) rows(n - 1, j) = rows(0, j);
    }
    const SoaMatrix x = SoaMatrix::from_rows(rows);
    const std::size_t centres[] = {0, n / 2, n - 1, 0};
    std::vector<double> want(n, std::numeric_limits<double>::max());
    std::vector<double> want_total;
    for (const std::size_t c : centres) {
      const auto centre = rows.row(c);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          const double diff = rows(i, j) - centre[j];
          sum += diff * diff;
        }
        want[i] = std::min(want[i], sum);
        total += want[i];
      }
      want_total.push_back(total);
    }
    for (const Level level : available_levels()) {
      ForcedLevel pin(level);
      std::vector<double> got(n, std::numeric_limits<double>::max());
      std::vector<std::size_t> nearest(n, 0);
      std::vector<double> second(n, std::numeric_limits<double>::max());
      for (std::size_t s = 0; s < std::size(centres); ++s) {
        const double total = seed_update(
            x.data(), x.stride(), d, rows.row(centres[s]).data(), s, n,
            got.data(), nearest.data(), second.data());
        EXPECT_TRUE(bit_equal(want_total[s], total))
            << "n=" << n << " centre " << s << " level=" << level_name(level);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(want[i], got[i]))
            << "n=" << n << " i=" << i << " level=" << level_name(level);
      }
    }
  }
}

TEST(SimdKernels, SeedUpdateTracksNearestAndRunnerUp) {
  // One seed_update per seed row, in seed order, leaves the state a full
  // nearest_centroids scan against those rows returns: k-means seeding
  // hands Lloyd its first assignment pass.  Repeated seeds and identical
  // rows make exact ties, which the earliest seed must win.
  const std::size_t d = 12;
  for (const std::size_t n : kSizes) {
    for (const bool tied : {false, true}) {
      Matrix rows(n, d);
      std::mt19937_64 rng(n * 13 + (tied ? 1 : 0));
      std::uniform_real_distribution<double> unit(-1.0, 1.0);
      for (double& v : rows.data()) v = tied ? 0.5 : unit(rng);
      const SoaMatrix x = SoaMatrix::from_rows(rows);
      for (const std::size_t k : {1ul, 2ul, 6ul}) {
        // Every third seed repeats the seed two before it.
        std::vector<std::size_t> seeds;
        for (std::size_t c = 0; c < k; ++c) {
          seeds.push_back(c % 3 == 2 ? seeds[c - 2] : (c * 5 + 1) % n);
        }
        Matrix centroids(k, d);
        for (std::size_t c = 0; c < k; ++c) {
          const auto src = rows.row(seeds[c]);
          std::copy(src.begin(), src.end(), centroids.row(c).begin());
        }
        for (const Level level : available_levels()) {
          ForcedLevel pin(level);
          std::vector<std::size_t> want_nearest(n);
          std::vector<double> want_best(n);
          std::vector<double> want_second(n);
          nearest_centroids(x.data(), x.stride(), d, centroids.data().data(),
                            k, 0, n, want_nearest.data(), want_best.data(),
                            want_second.data());
          std::vector<double> d2(n, std::numeric_limits<double>::max());
          std::vector<std::size_t> nearest(n, 0);
          std::vector<double> second(n, std::numeric_limits<double>::max());
          for (std::size_t c = 0; c < k; ++c) {
            (void)seed_update(x.data(), x.stride(), d,
                              rows.row(seeds[c]).data(), c, n, d2.data(),
                              nearest.data(), second.data());
          }
          const std::string label = "n=" + std::to_string(n) +
                                    " k=" + std::to_string(k) +
                                    (tied ? " tied" : "") +
                                    " level=" + std::string(level_name(level));
          EXPECT_EQ(want_nearest, nearest) << label;
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(bit_equal(want_best[i], d2[i])) << label << " i=" << i;
            EXPECT_TRUE(bit_equal(want_second[i], second[i]))
                << label << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, TruncatedSvdIdenticalAcrossLevels) {
  Matrix a(37, 9);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : a.data()) v = unit(rng);

  ForcedLevel pin(Level::kScalar);
  const SvdResult want = truncated_svd(a, 6);
  for (const Level level : available_levels()) {
    force_level(level);
    const SvdResult got = truncated_svd(a, 6);
    ASSERT_EQ(want.sigma.size(), got.sigma.size());
    for (std::size_t i = 0; i < want.sigma.size(); ++i) {
      EXPECT_TRUE(bit_equal(want.sigma[i], got.sigma[i])) << "i=" << i;
    }
    for (std::size_t i = 0; i < want.u.data().size(); ++i) {
      ASSERT_TRUE(bit_equal(want.u.data()[i], got.u.data()[i])) << "i=" << i;
    }
    for (std::size_t i = 0; i < want.v.data().size(); ++i) {
      ASSERT_TRUE(bit_equal(want.v.data()[i], got.v.data()[i])) << "i=" << i;
    }
  }
}

TEST(SimdKernels, KMeansIdenticalAcrossLevels) {
  Matrix x(200, 18);
  std::mt19937_64 fill_rng(17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : x.data()) v = unit(fill_rng);

  ForcedLevel pin(Level::kScalar);
  std::mt19937_64 rng_scalar(5);
  const summarize::KMeansResult want = summarize::kmeans(x, 20, rng_scalar);
  for (const Level level : available_levels()) {
    force_level(level);
    std::mt19937_64 rng(5);
    const summarize::KMeansResult got = summarize::kmeans(x, 20, rng);
    EXPECT_EQ(want.assignment, got.assignment) << level_name(level);
    EXPECT_EQ(want.counts, got.counts);
    EXPECT_TRUE(bit_equal(want.inertia, got.inertia));
    for (std::size_t i = 0; i < want.centroids.data().size(); ++i) {
      ASSERT_TRUE(
          bit_equal(want.centroids.data()[i], got.centroids.data()[i]));
    }
  }
}

/// The end-to-end guarantee the kernels were designed around: a seeded
/// Summarizer's serialized output is byte-identical with SIMD on or off,
/// and across thread counts.
TEST(SimdKernels, SummarizerByteIdenticalAcrossLevelsAndThreads) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 9);
  const auto packets = trace::take(gen, 900);
  summarize::SummarizerConfig cfg;
  cfg.batch_size = 900;
  cfg.min_batch = 450;
  cfg.rank = 12;
  cfg.centroids = 64;

  ForcedLevel pin(Level::kScalar);
  summarize::Summarizer reference(cfg);
  const auto ref = reference.summarize(packets);
  const auto ref_bytes = summarize::serialize(ref.summary);

  for (const Level level : available_levels()) {
    force_level(level);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      auto pool = std::make_shared<runtime::ThreadPool>(threads);
      summarize::Summarizer s(cfg);
      s.set_pool(pool);
      const auto out = s.summarize(packets);
      EXPECT_EQ(out.assignment, ref.assignment)
          << "level=" << level_name(level) << " threads=" << threads;
      EXPECT_EQ(summarize::serialize(out.summary), ref_bytes)
          << "level=" << level_name(level) << " threads=" << threads;
    }
  }
}

TEST(SimdKernels, AssignToCentroidsValidatesShapes) {
  const SoaMatrix x(10, 4);
  Matrix centroids(3, 5);  // wrong d
  std::vector<std::size_t> assign(10);
  std::vector<double> dist(10);
  EXPECT_THROW(
      summarize::assign_to_centroids(x, centroids, assign, dist, nullptr),
      std::invalid_argument);
  Matrix ok_centroids(3, 4);
  std::vector<std::size_t> short_assign(9);
  EXPECT_THROW(summarize::assign_to_centroids(x, ok_centroids, short_assign,
                                              dist, nullptr),
               std::invalid_argument);
}

TEST(SoaMatrix, RoundTripsAndPads) {
  Matrix m(5, 3);
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : m.data()) v = unit(rng);
  const SoaMatrix soa = SoaMatrix::from_rows(m);
  EXPECT_EQ(soa.rows(), 5u);
  EXPECT_EQ(soa.cols(), 3u);
  EXPECT_EQ(soa.stride(), 8u);  // padded to a multiple of 8
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(soa(r, c), m(r, c));
  }
  // Padding rows are zero (kernels may load them).
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 5; r < 8; ++r) EXPECT_EQ(soa.col(c)[r], 0.0);
  }
  const Matrix back = soa.to_rows();
  EXPECT_TRUE(
      std::equal(back.data().begin(), back.data().end(), m.data().begin()));
}

}  // namespace
}  // namespace jaal::linalg::simd
