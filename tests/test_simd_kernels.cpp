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

bool bit_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Row-major float copy of a matrix: the centroid layout the k-means
/// kernels take.
std::vector<float> floats(const Matrix& m) {
  return {m.data().begin(), m.data().end()};
}

/// seed_update's total, written out: lane l sums v[i] for i % 16 == l in
/// ascending i, then lanes fold as a halving tree.
double canonical_total(const std::vector<float>& v) {
  double lane[16] = {};
  for (std::size_t i = 0; i < v.size(); ++i) lane[i % 16] += v[i];
  for (std::size_t w = 8; w > 0; w /= 2) {
    for (std::size_t l = 0; l < w; ++l) lane[l] += lane[l + w];
  }
  return lane[0];
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

TEST(SimdKernels, NearestCentroidsBitIdenticalAcrossLevels) {
  const std::size_t d = 18;
  for (const std::size_t n : kSizes) {
    for (const std::size_t k : {1ul, 3ul, 17ul}) {
      Matrix rows(n, d);
      std::mt19937_64 rng(n * 100 + k);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      for (double& v : rows.data()) v = unit(rng);
      const SoaMatrix<float> x = SoaMatrix<float>::from_rows(rows);
      Matrix centroid_rows(k, d);
      for (double& v : centroid_rows.data()) v = unit(rng);
      const std::vector<float> centroids = floats(centroid_rows);

      ForcedLevel pin(Level::kScalar);
      std::vector<std::uint32_t> assign_want(n);
      std::vector<float> dist_want(n);
      std::vector<float> second_want(n);
      nearest_centroids(x.data(), x.stride(), d, centroids.data(), k, 0, n,
                        assign_want.data(), dist_want.data(),
                        second_want.data());
      for (const Level level : available_levels()) {
        force_level(level);
        std::vector<std::uint32_t> assign(n);
        std::vector<float> dist(n);
        std::vector<float> second(n);
        nearest_centroids(x.data(), x.stride(), d, centroids.data(), k, 0, n,
                          assign.data(), dist.data(), second.data());
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
  // must agree, and the runner-up distance equals the best one.  n = 19
  // covers a whole 16-lane vector and a tail at every level.
  const std::size_t d = 4, n = 19, k = 3;
  Matrix rows(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) rows(i, j) = 0.5;
  }
  const SoaMatrix<float> x = SoaMatrix<float>::from_rows(rows);
  const std::vector<float> centroids(k * d, 0.0f);  // all zero -> all ties
  for (const Level level : available_levels()) {
    ForcedLevel pin(level);
    std::vector<std::uint32_t> assign(n, 99);
    std::vector<float> dist(n);
    std::vector<float> second(n);
    nearest_centroids(x.data(), x.stride(), d, centroids.data(), k, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 0u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(dist[i], 1.0f)) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 1.0f)) << "level=" << level_name(level);
    }
  }

  // Duplicates of the nearest centroid at a later index, and a distinct
  // runner-up before it: the first copy wins and the second output is the
  // duplicate's (equal) distance, not the farther centroid's.  With one
  // centroid there is no runner-up and the second output stays FLT_MAX.
  Matrix mixed_rows(4, d);
  for (std::size_t j = 0; j < d; ++j) {
    mixed_rows(0, j) = 2.0;   // distance^2 4 * 1.5^2 = 9
    mixed_rows(1, j) = 0.25;  // nearest: 4 * 0.25^2 = 0.25
    mixed_rows(2, j) = 1.5;   // 4
    mixed_rows(3, j) = 0.25;  // duplicate of the nearest
  }
  const std::vector<float> mixed = floats(mixed_rows);
  for (const Level level : available_levels()) {
    ForcedLevel pin(level);
    std::vector<std::uint32_t> assign(n, 99);
    std::vector<float> dist(n);
    std::vector<float> second(n);
    nearest_centroids(x.data(), x.stride(), d, mixed.data(), 4, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 1u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(dist[i], 0.25f)) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 0.25f)) << "level=" << level_name(level);
    }
    // Without the duplicate the runner-up is centroid 2.
    nearest_centroids(x.data(), x.stride(), d, mixed.data(), 3, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 1u) << "level=" << level_name(level);
      EXPECT_TRUE(bit_equal(second[i], 4.0f)) << "level=" << level_name(level);
    }
    nearest_centroids(x.data(), x.stride(), d, mixed.data(), 1, 0, n,
                      assign.data(), dist.data(), second.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assign[i], 0u) << "level=" << level_name(level);
      EXPECT_EQ(second[i], std::numeric_limits<float>::max());
    }
  }
}

TEST(SimdKernels, SeedUpdateBitIdenticalAcrossLevels) {
  // Against the scalar seeder's own loop: d2[i] = min(d2[i], |x_i - c|^2)
  // over the float rows, squares summed in field order in float, and the
  // total summed in the 16 canonical lanes.
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
    const SoaMatrix<float> x = SoaMatrix<float>::from_rows(rows);
    const std::vector<float> frows = floats(rows);
    const std::size_t centres[] = {0, n / 2, n - 1, 0};
    std::vector<float> want(n, std::numeric_limits<float>::max());
    std::vector<double> want_total;
    for (const std::size_t c : centres) {
      const float* centre = frows.data() + c * d;
      for (std::size_t i = 0; i < n; ++i) {
        float sum = 0.0f;
        for (std::size_t j = 0; j < d; ++j) {
          const float diff = frows[i * d + j] - centre[j];
          sum += diff * diff;
        }
        want[i] = std::min(want[i], sum);
      }
      want_total.push_back(canonical_total(want));
    }
    for (const Level level : available_levels()) {
      ForcedLevel pin(level);
      std::vector<float> got(n, std::numeric_limits<float>::max());
      std::vector<std::uint32_t> nearest(n, 0);
      std::vector<float> second(n, std::numeric_limits<float>::max());
      for (std::size_t s = 0; s < std::size(centres); ++s) {
        const double total = seed_update(
            x.data(), x.stride(), d, frows.data() + centres[s] * d,
            static_cast<std::uint32_t>(s), n, got.data(), nearest.data(),
            second.data());
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

TEST(SimdKernels, SeedUpdateTotalIsTheCanonicalLaneSum) {
  // The total is the 16-lane canonical sum of the updated d2 at every
  // level, never a serial chain: whole 16-point groups, a lone 8-point
  // vector and scalar tails after them.  Float d2 values of one magnitude
  // sum exactly in double in any order, so every fifth point sits 1e5
  // farther out: then a serial chain of 2000 adds rounds differently.
  const std::size_t d = 12;
  for (const std::size_t n : {16ul, 24ul, 29ul, 2000ul, 2013ul}) {
    Matrix rows(n, d);
    std::mt19937_64 rng(n);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        rows(i, j) = unit(rng) * (i % 5 == 0 ? 1e5 : 1.0);
      }
    }
    const SoaMatrix<float> x = SoaMatrix<float>::from_rows(rows);
    const std::vector<float> frows = floats(rows);
    bool serial_differs = false;
    std::vector<double> scalar_totals;
    for (const Level level : available_levels()) {
      ForcedLevel pin(level);
      std::vector<float> d2(n, std::numeric_limits<float>::max());
      std::vector<std::uint32_t> nearest(n, 0);
      std::vector<float> second(n, std::numeric_limits<float>::max());
      for (std::uint32_t s = 0; s < 5; ++s) {
        const double total =
            seed_update(x.data(), x.stride(), d,
                        frows.data() + ((s * 37) % n) * d, s, n, d2.data(),
                        nearest.data(), second.data());
        const std::string label = "n=" + std::to_string(n) + " seed " +
                                  std::to_string(s) + " level=" +
                                  std::string(level_name(level));
        EXPECT_TRUE(bit_equal(canonical_total(d2), total)) << label;
        if (level == Level::kScalar) {
          scalar_totals.push_back(total);
        } else {
          EXPECT_TRUE(bit_equal(scalar_totals[s], total)) << label;
        }
        double serial = 0.0;
        for (const float v : d2) serial += v;
        serial_differs = serial_differs || !bit_equal(serial, total);
      }
    }
    if (n >= 2000) {
      EXPECT_TRUE(serial_differs) << "n=" << n << ": the serial sum matched";
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
      const SoaMatrix<float> x = SoaMatrix<float>::from_rows(rows);
      const std::vector<float> frows = floats(rows);
      for (const std::size_t k : {1ul, 2ul, 6ul}) {
        // Every third seed repeats the seed two before it.
        std::vector<std::size_t> seeds;
        for (std::size_t c = 0; c < k; ++c) {
          seeds.push_back(c % 3 == 2 ? seeds[c - 2] : (c * 5 + 1) % n);
        }
        std::vector<float> centroids;
        for (const std::size_t s : seeds) {
          centroids.insert(centroids.end(), frows.begin() + s * d,
                           frows.begin() + (s + 1) * d);
        }
        for (const Level level : available_levels()) {
          ForcedLevel pin(level);
          std::vector<std::uint32_t> want_nearest(n);
          std::vector<float> want_best(n);
          std::vector<float> want_second(n);
          nearest_centroids(x.data(), x.stride(), d, centroids.data(), k, 0,
                            n, want_nearest.data(), want_best.data(),
                            want_second.data());
          std::vector<float> d2(n, std::numeric_limits<float>::max());
          std::vector<std::uint32_t> nearest(n, 0);
          std::vector<float> second(n, std::numeric_limits<float>::max());
          for (std::size_t c = 0; c < k; ++c) {
            (void)seed_update(x.data(), x.stride(), d,
                              frows.data() + seeds[c] * d,
                              static_cast<std::uint32_t>(c), n, d2.data(),
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

void expect_same_svd(const SvdResult& want, const SvdResult& got,
                     const std::string& label) {
  EXPECT_EQ(want.sweeps, got.sweeps) << label;
  ASSERT_EQ(want.sigma.size(), got.sigma.size()) << label;
  for (std::size_t i = 0; i < want.sigma.size(); ++i) {
    EXPECT_TRUE(bit_equal(want.sigma[i], got.sigma[i])) << label << " i=" << i;
  }
  ASSERT_EQ(want.u.data().size(), got.u.data().size()) << label;
  for (std::size_t i = 0; i < want.u.data().size(); ++i) {
    ASSERT_TRUE(bit_equal(want.u.data()[i], got.u.data()[i]))
        << label << " i=" << i;
  }
  ASSERT_EQ(want.v.data().size(), got.v.data().size()) << label;
  for (std::size_t i = 0; i < want.v.data().size(); ++i) {
    ASSERT_TRUE(bit_equal(want.v.data()[i], got.v.data()[i]))
        << label << " i=" << i;
  }
}

/// True when `got` holds svd(a)'s first r triplets bit for bit: the
/// truncation fell back to one-sided Jacobi.
bool is_one_sided_cut(const Matrix& a, const SvdResult& got) {
  const SvdResult full = svd(a);
  const std::size_t r = got.sigma.size();
  for (std::size_t c = 0; c < r; ++c) {
    if (!bit_equal(full.sigma[c], got.sigma[c])) return false;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (!bit_equal(full.u(i, c), got.u(i, c))) return false;
    }
    for (std::size_t i = 0; i < a.cols(); ++i) {
      if (!bit_equal(full.v(i, c), got.v(i, c))) return false;
    }
  }
  return true;
}

TEST(SimdKernels, TruncatedSvdIdenticalAcrossLevels) {
  Matrix a(37, 9);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : a.data()) v = unit(rng);
  // Rank 3 (rows repeat three random rows, scaled), truncated above it.
  Matrix deficient(37, 9);
  for (std::size_t i = 0; i < 37; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      deficient(i, j) = a(i % 3, j) * static_cast<double>(1 + i % 5);
    }
  }

  ForcedLevel pin(Level::kScalar);
  const SvdResult want = truncated_svd(a, 6);
  const SvdResult want_deficient = truncated_svd(deficient, 6);
  // `a` takes the Gram path and `deficient` the one-sided fallback.
  EXPECT_FALSE(is_one_sided_cut(a, want));
  EXPECT_TRUE(is_one_sided_cut(deficient, want_deficient));
  for (const Level level : available_levels()) {
    force_level(level);
    const std::string name(level_name(level));
    expect_same_svd(want, truncated_svd(a, 6), "gram level=" + name);
    expect_same_svd(want_deficient, truncated_svd(deficient, 6),
                    "fallback level=" + name);
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
  const SoaMatrix<float> x(10, 4);
  Matrix centroids(3, 5);  // wrong d
  std::vector<std::uint32_t> assign(10);
  std::vector<float> dist(10);
  EXPECT_THROW(
      summarize::assign_to_centroids(x, centroids, assign, dist, nullptr),
      std::invalid_argument);
  Matrix ok_centroids(3, 4);
  std::vector<std::uint32_t> short_assign(9);
  EXPECT_THROW(summarize::assign_to_centroids(x, ok_centroids, short_assign,
                                              dist, nullptr),
               std::invalid_argument);
}

TEST(SoaMatrix, RoundTripsAndPads) {
  Matrix m(5, 3);
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& v : m.data()) v = unit(rng);
  const SoaMatrix<double> soa = SoaMatrix<double>::from_rows(m);
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

  // The float copy k-means clusters rounds each value to the nearest float
  // and pads to 16 floats, also one 64-byte vector.
  const SoaMatrix<float> fsoa = SoaMatrix<float>::from_rows(m);
  EXPECT_EQ(fsoa.stride(), 16u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(fsoa(r, c), static_cast<float>(m(r, c)));
    }
  }
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 5; r < 16; ++r) EXPECT_EQ(fsoa.col(c)[r], 0.0f);
  }
}

}  // namespace
}  // namespace jaal::linalg::simd
