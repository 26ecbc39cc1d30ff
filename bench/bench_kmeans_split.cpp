// k-means seeding / Lloyd split at the paper's operating point, timed
// directly.
//
// perfbench's summarize.kmeans.seed_ms derives seeding from capped calls as
// t(0) - (t(1) - t(0)), which assumes every assignment pass costs the same.
// The passes are bounded and the first one comes out of seeding, so that
// estimate is biased.  This bench times whole kmeans() calls and, on the
// same batches, the k-means++ seeding alone (the same rng draws, kernel and
// pick as kmeans(), checked against the seeds kmeans() itself returns with
// max_iterations = 0); Lloyd is the difference.  It prints the capped
// estimate beside the direct split.
//
// Batches: U_r (r = 12) of trace-1 header batches, n = 1600-2399, k = 400,
// clustered serially.  Every figure is the sum over batches of each batch's
// minimum over kRounds rounds, divided by the batch count: per-call ms.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "linalg/simd.hpp"
#include "linalg/soa.hpp"
#include "linalg/svd.hpp"
#include "summarize/kmeans.hpp"
#include "summarize/normalize.hpp"
#include "trace/background.hpp"

namespace {

using namespace jaal;

constexpr std::size_t kBatches = 24;
constexpr std::size_t kK = 400;
constexpr std::size_t kRank = 12;
constexpr int kRounds = 8;

linalg::Matrix u_batch(std::size_t b) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 1000 + b);
  const std::size_t n = 1600 + (b * 331) % 800;
  return linalg::truncated_svd(
             summarize::to_normalized_matrix(trace::take(gen, n)), kRank)
      .u;
}

/// kmeans()'s k-means++ seeding alone: the float SoA copy, one seed_update
/// per seed (the last one too) and the serial pick.  Returns the seed rows.
std::vector<std::size_t> seed_only(const linalg::Matrix& x, std::size_t k,
                                   std::mt19937_64& rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const auto xs = linalg::SoaMatrix<float>::from_rows(x);
  std::vector<float> d2(n, std::numeric_limits<float>::max());
  std::vector<float> second(n, std::numeric_limits<float>::max());
  std::vector<std::uint32_t> nearest(n, 0);
  std::vector<float> centres;
  std::vector<std::size_t> seeds;
  const auto add = [&](std::size_t row) {
    for (std::size_t j = 0; j < d; ++j) centres.push_back(xs(row, j));
    seeds.push_back(row);
    return linalg::simd::seed_update(
        xs.data(), xs.stride(), d, centres.data() + (seeds.size() - 1) * d,
        static_cast<std::uint32_t>(seeds.size() - 1), n, d2.data(),
        nearest.data(), second.data());
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double total = add(rng() % n);
  while (seeds.size() < k) {
    std::size_t pick = n - 1;
    if (total <= 0.0) {
      pick = rng() % n;
    } else {
      double target = unit(rng) * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= d2[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    }
    total = add(pick);
  }
  return seeds;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall ms of one call of body(rng) with rng freshly seeded.
template <typename F>
double time_once(std::uint64_t seed, F&& body) {
  std::mt19937_64 rng(seed);
  const double start = now_ms();
  body(rng);
  return now_ms() - start;
}

}  // namespace

int main() {
  bench::print_header("k-means seeding / Lloyd split (n = 1600-2399, k = 400)");
  std::vector<linalg::Matrix> batches;
  for (std::size_t b = 0; b < kBatches; ++b) batches.push_back(u_batch(b));

  // The replica must pick exactly kmeans()'s seeds: with no Lloyd iteration
  // the returned centroids are the seed rows, rounded to float.
  double iterations = 0.0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const linalg::Matrix& x = batches[b];
    const linalg::Matrix rounded =
        linalg::SoaMatrix<float>::from_rows(x).to_rows();
    std::mt19937_64 rng_a(b);
    const auto seeds = seed_only(x, kK, rng_a);
    summarize::KMeansOptions capped;
    capped.max_iterations = 0;
    std::mt19937_64 rng_b(b);
    const auto km = summarize::kmeans(x, kK, rng_b, capped);
    for (std::size_t c = 0; c < kK; ++c) {
      if (std::memcmp(km.centroids.row(c).data(),
                      rounded.row(seeds[c]).data(),
                      x.cols() * sizeof(double)) != 0) {
        std::printf("  MISMATCH: seeding replica differs from kmeans() "
                    "(batch %zu, seed %zu)\n",
                    b, c);
        return 1;
      }
    }
    std::mt19937_64 rng_c(b);
    iterations += static_cast<double>(summarize::kmeans(x, kK, rng_c).iterations);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> whole(kBatches, kInf), seed(kBatches, kInf);
  std::vector<double> capped0(kBatches, kInf), capped1(kBatches, kInf);
  volatile std::size_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t b = 0; b < kBatches; ++b) {
      const linalg::Matrix& x = batches[b];
      const auto run_whole = [&](std::mt19937_64& rng) {
        sink = sink + summarize::kmeans(x, kK, rng).iterations;
      };
      const auto run_seed = [&](std::mt19937_64& rng) {
        sink = sink + seed_only(x, kK, rng).back();
      };
      const auto run_capped = [&](std::size_t iters) {
        return [&x, iters](std::mt19937_64& rng) {
          summarize::KMeansOptions opts;
          opts.max_iterations = iters;
          (void)summarize::kmeans(x, kK, rng, opts);
        };
      };
      // Alternate which side runs first so neither gets a warmer cache.
      if (round % 2 == 0) {
        whole[b] = std::min(whole[b], time_once(b, run_whole));
        seed[b] = std::min(seed[b], time_once(b, run_seed));
      } else {
        seed[b] = std::min(seed[b], time_once(b, run_seed));
        whole[b] = std::min(whole[b], time_once(b, run_whole));
      }
      capped0[b] = std::min(capped0[b], time_once(b, run_capped(0)));
      capped1[b] = std::min(capped1[b], time_once(b, run_capped(1)));
    }
  }

  double whole_ms = 0.0, seed_ms = 0.0, t0 = 0.0, t1 = 0.0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    whole_ms += whole[b] / kBatches;
    seed_ms += seed[b] / kBatches;
    t0 += capped0[b] / kBatches;
    t1 += capped1[b] / kBatches;
  }
  const double estimate = t0 - (t1 - t0);
  iterations /= kBatches;
  std::printf("  simd level: %s, %zu batches, min of %d rounds\n",
              std::string(linalg::simd::level_name(linalg::simd::active()))
                  .c_str(),
              kBatches, kRounds);
  std::printf("  whole kmeans()          %8.3f ms/call (%.2f iterations)\n",
              whole_ms, iterations);
  std::printf("  seeding (direct)        %8.3f ms/call\n", seed_ms);
  std::printf("  Lloyd (whole - seeding) %8.3f ms/call\n", whole_ms - seed_ms);
  std::printf("  capped estimate of seeding t(0) - (t(1) - t(0)) = "
              "%.3f - (%.3f - %.3f) = %.3f ms/call\n",
              t0, t1, t0, estimate);
  bench::write_bench_json("kmeans_split",
                          {{{"kmeans_split", 1.0},
                            {"whole_ms", whole_ms},
                            {"seed_ms", seed_ms},
                            {"lloyd_ms", whole_ms - seed_ms},
                            {"capped0_ms", t0},
                            {"capped1_ms", t1},
                            {"capped_estimate_seed_ms", estimate},
                            {"iterations", iterations}}},
                          {});
  return 0;
}
