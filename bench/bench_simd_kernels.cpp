// SIMD kernel speedups: scalar vs the best dispatch level on this host.
//
// One row per kernel of linalg/simd.hpp plus two end-to-end rows (k-means
// assignment, full summarize), each timed with the dispatch pinned to
// scalar and then to detected().  Every row carries a `kernel_<name>` key
// so bench/check_bench_regression.py can match rows across runs without
// relying on order, and the speedup column is what the CI regression gate
// floors.  Kernel outputs are checksummed and compared across levels — a
// determinism violation (any bit difference) fails the bench outright,
// because the whole design contract is "SIMD changes nothing but time".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "common.hpp"
#include "linalg/simd.hpp"
#include "linalg/soa.hpp"
#include "summarize/kmeans.hpp"
#include "summarize/summarizer.hpp"
#include "trace/background.hpp"

namespace {

using namespace jaal;
namespace simd = linalg::simd;

constexpr std::size_t kBatch = 1500;   // n: paper-standard epoch batch
constexpr std::size_t kDims = 18;      // p: header fields
constexpr std::size_t kCentroids = 150;
constexpr int kReps = 5;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-kReps wall time of `body` (which must fold its result into a
/// checksum to defeat dead-code elimination).
template <typename F>
double time_best_ms(F&& body) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = now_ms();
    body();
    const double ms = now_ms() - start;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

volatile double g_sink = 0.0;  // checksum sink the optimizer cannot drop

struct LevelTimes {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double scalar_check = 0.0;
  double simd_check = 0.0;
};

/// Times `body` (returning a checksum) at scalar and at detected() level.
template <typename F>
LevelTimes time_levels(F&& body) {
  LevelTimes t;
  simd::force_level(simd::Level::kScalar);
  t.scalar_ms = time_best_ms([&] { g_sink = body(); });
  t.scalar_check = g_sink;
  simd::force_level(simd::detected());
  t.simd_ms = time_best_ms([&] { g_sink = body(); });
  t.simd_check = g_sink;
  return t;
}

bool report(const char* name, const LevelTimes& t, double items_per_call,
            std::vector<std::vector<std::pair<std::string, double>>>& rows) {
  const double speedup = t.simd_ms > 0.0 ? t.scalar_ms / t.simd_ms : 0.0;
  const double per_sec =
      t.simd_ms > 0.0 ? items_per_call / (t.simd_ms / 1e3) : 0.0;
  const bool identical =
      std::memcmp(&t.scalar_check, &t.simd_check, sizeof(double)) == 0;
  std::printf("  %-22s %9.3f  %9.3f  %6.2fx  %12.3g  %s\n", name, t.scalar_ms,
              t.simd_ms, speedup, per_sec, identical ? "ok" : "MISMATCH");
  rows.push_back({{std::string("kernel_") + name, 1.0},
                  {"scalar_ms", t.scalar_ms},
                  {"simd_ms", t.simd_ms},
                  {"speedup", speedup},
                  {"items_per_sec", per_sec}});
  return identical;
}

}  // namespace

int main() {
  bench::print_header("SIMD kernels: scalar vs best dispatch level");
  std::printf("  detected level: %s (active: %s)\n",
              std::string(simd::level_name(simd::detected())).c_str(),
              std::string(simd::level_name(simd::active())).c_str());
  std::printf("  %-22s scalar-ms    simd-ms  speedup  items/s       check\n",
              "kernel");

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Column-pair inputs for the Jacobi kernels: one long column pair.
  constexpr std::size_t kColLen = kBatch;
  constexpr int kColIters = 2000;
  std::vector<double> col_a(kColLen), col_b(kColLen);
  for (double& v : col_a) v = unit(rng);
  for (double& v : col_b) v = unit(rng);

  // SoA batch + centroids for the k-means kernels.
  linalg::Matrix batch_rows(kBatch, kDims);
  for (double& v : batch_rows.data()) v = unit(rng);
  const linalg::SoaMatrix batch = linalg::SoaMatrix::from_rows(batch_rows);
  linalg::Matrix centroids(kCentroids, kDims);
  for (double& v : centroids.data()) v = unit(rng);
  const linalg::SoaMatrix centroids_dim_major =
      linalg::SoaMatrix::from_rows(centroids);

  std::vector<std::vector<std::pair<std::string, double>>> rows;
  bool all_identical = true;

  all_identical &= report(
      "dot",
      time_levels([&] {
        double acc = 0.0;
        for (int i = 0; i < kColIters; ++i) {
          acc += simd::dot(col_a.data(), col_b.data(), kColLen);
        }
        return acc;
      }),
      static_cast<double>(kColLen) * kColIters, rows);

  all_identical &= report(
      "pair_dots",
      time_levels([&] {
        double acc = 0.0;
        for (int i = 0; i < kColIters; ++i) {
          const simd::PairDots d =
              simd::pair_dots(col_a.data(), col_b.data(), kColLen);
          acc += d.alpha + d.beta + d.gamma;
        }
        return acc;
      }),
      static_cast<double>(kColLen) * kColIters, rows);

  all_identical &= report(
      "rotate_pair",
      time_levels([&] {
        std::vector<double> a = col_a;
        std::vector<double> b = col_b;
        for (int i = 0; i < kColIters; ++i) {
          simd::rotate_pair(a.data(), b.data(), kColLen, 0.8, 0.6);
        }
        return a[kColLen / 2] + b[kColLen / 3];
      }),
      static_cast<double>(kColLen) * kColIters, rows);

  constexpr int kAssignIters = 50;
  std::vector<std::size_t> assignment(kBatch);
  std::vector<double> best_dist(kBatch);
  all_identical &= report(
      "kmeans_assign",
      time_levels([&] {
        double acc = 0.0;
        for (int i = 0; i < kAssignIters; ++i) {
          summarize::assign_to_centroids(batch, centroids, assignment,
                                         best_dist, nullptr);
          acc += best_dist[i % kBatch] +
                 static_cast<double>(assignment[i % kBatch]);
        }
        return acc;
      }),
      static_cast<double>(kBatch) * kAssignIters, rows);

  constexpr int kPointIters = 20000;
  all_identical &= report(
      "nearest_point",
      time_levels([&] {
        double acc = 0.0;
        for (int i = 0; i < kPointIters; ++i) {
          const simd::Nearest n = simd::nearest_point(
              centroids_dim_major.data(), centroids_dim_major.stride(), kDims,
              kCentroids, batch_rows.row(i % kBatch).data());
          acc += n.dist + static_cast<double>(n.index);
        }
        return acc;
      }),
      static_cast<double>(kPointIters), rows);

  // k-means++ D^2 update at the paper's operating point (n = 2000 rows of
  // U_r, r = 12): one seed_update (distances, the nearest seed and the
  // runner-up distance, plus the serial total) per chosen centre.
  constexpr std::size_t kSeedRows = 2000;
  constexpr std::size_t kSeedDims = 12;
  constexpr int kSeedIters = 400;
  linalg::Matrix seed_rows(kSeedRows, kSeedDims);
  for (double& v : seed_rows.data()) v = unit(rng);
  const linalg::SoaMatrix seed_batch = linalg::SoaMatrix::from_rows(seed_rows);
  const std::vector<double> unit_weights(kSeedRows, 1.0);
  std::vector<double> d2(kSeedRows);
  std::vector<std::size_t> nearest(kSeedRows);
  std::vector<double> second(kSeedRows);
  all_identical &= report(
      "seed_update",
      time_levels([&] {
        std::fill(d2.begin(), d2.end(), std::numeric_limits<double>::max());
        std::fill(nearest.begin(), nearest.end(), 0);
        std::fill(second.begin(), second.end(),
                  std::numeric_limits<double>::max());
        double acc = 0.0;
        for (int i = 0; i < kSeedIters; ++i) {
          acc += simd::seed_update(
              seed_batch.data(), seed_batch.stride(), kSeedDims,
              seed_rows.row((i * 7) % kSeedRows).data(),
              static_cast<std::size_t>(i), unit_weights.data(), kSeedRows,
              d2.data(), nearest.data(), second.data());
        }
        return acc + second[kSeedRows / 2] +
               static_cast<double>(nearest[kSeedRows / 3]);
      }),
      static_cast<double>(kSeedRows) * kSeedIters, rows);

  // End-to-end: the full summarize pipeline (normalize + SVD + k-means) on
  // a realistic traffic batch.  This is the acceptance row: the CI gate
  // floors its speedup at 2x on SIMD-capable hosts.
  trace::BackgroundTraffic gen(trace::trace1_profile(), 7);
  const auto packets = trace::take(gen, kBatch);
  summarize::SummarizerConfig cfg;
  cfg.batch_size = kBatch;
  cfg.min_batch = 1;
  cfg.rank = 12;
  cfg.centroids = kCentroids;
  all_identical &= report(
      "full_summarize",
      time_levels([&] {
        summarize::Summarizer summarizer(cfg);  // same seed both levels
        const auto out = summarizer.summarize(packets);
        const auto bytes = summarize::serialize(out.summary);
        double acc = static_cast<double>(bytes.size());
        for (std::size_t i = 0; i < bytes.size(); i += 37) {
          acc += static_cast<double>(bytes[i]);
        }
        return acc;
      }),
      static_cast<double>(kBatch), rows);

  simd::force_level(simd::detected());
  if (!all_identical) {
    std::printf("  DETERMINISM VIOLATION: scalar and SIMD checksums differ\n");
    return 1;
  }

  std::string detected = "\"";
  detected += simd::level_name(simd::detected());
  detected += '"';
  bench::write_bench_json("simd_kernels", rows, {{"simd_detected", detected}});
  return 0;
}
