// SIMD kernel speedups: scalar vs the best dispatch level on this host.
//
// One row per kernel of linalg/simd.hpp, the store's record CRC-32, and
// two end-to-end rows (k-means assignment, full summarize), each timed with
// the dispatch pinned to scalar and then to detected().  Every row carries a `kernel_<name>` key
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
#include "store/flat_record.hpp"
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

  // Column-pair inputs for dot: one long column pair.
  constexpr std::size_t kColLen = kBatch;
  constexpr int kColIters = 2000;
  std::vector<double> col_a(kColLen), col_b(kColLen);
  for (double& v : col_a) v = unit(rng);
  for (double& v : col_b) v = unit(rng);

  // Float SoA batch + centroids for the k-means kernels.
  linalg::Matrix batch_rows(kBatch, kDims);
  for (double& v : batch_rows.data()) v = unit(rng);
  const auto batch = linalg::SoaMatrix<float>::from_rows(batch_rows);
  linalg::Matrix centroids(kCentroids, kDims);
  for (double& v : centroids.data()) v = unit(rng);

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

  constexpr int kAssignIters = 50;
  std::vector<std::uint32_t> assignment(kBatch);
  std::vector<float> best_dist(kBatch);
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

  // k-means++ D^2 update at the paper's operating point (n = 2000 rows of
  // U_r, r = 12): one seed_update (float distances, the nearest seed and
  // the runner-up distance, plus the 16-lane total) per chosen centre.
  constexpr std::size_t kSeedRows = 2000;
  constexpr std::size_t kSeedDims = 12;
  constexpr int kSeedIters = 400;
  linalg::Matrix seed_rows(kSeedRows, kSeedDims);
  for (double& v : seed_rows.data()) v = unit(rng);
  const auto seed_batch = linalg::SoaMatrix<float>::from_rows(seed_rows);
  const std::vector<float> seed_centres(seed_rows.data().begin(),
                                        seed_rows.data().end());
  std::vector<float> d2(kSeedRows);
  std::vector<std::uint32_t> nearest(kSeedRows);
  std::vector<float> second(kSeedRows);
  all_identical &= report(
      "seed_update",
      time_levels([&] {
        std::fill(d2.begin(), d2.end(), std::numeric_limits<float>::max());
        std::fill(nearest.begin(), nearest.end(), 0);
        std::fill(second.begin(), second.end(),
                  std::numeric_limits<float>::max());
        double acc = 0.0;
        for (int i = 0; i < kSeedIters; ++i) {
          acc += simd::seed_update(
              seed_batch.data(), seed_batch.stride(), kSeedDims,
              seed_centres.data() + ((i * 7) % kSeedRows) * kSeedDims,
              static_cast<std::uint32_t>(i), kSeedRows, d2.data(),
              nearest.data(), second.data());
        }
        return acc + second[kSeedRows / 2] +
               static_cast<double>(nearest[kSeedRows / 3]);
      }),
      static_cast<double>(kSeedRows) * kSeedIters, rows);

  // Store record CRC-32 over one stored epoch's worth of summary payloads
  // (~670 KB): the slicing-by-8 table at scalar, the carry-less-multiply
  // fold at the vector levels (on pclmul hosts).
  constexpr std::size_t kCrcBytes = 670 * 1024;
  constexpr int kCrcIters = 20;
  std::vector<std::uint8_t> crc_buf(kCrcBytes);
  for (std::uint8_t& b : crc_buf) b = static_cast<std::uint8_t>(rng());
  all_identical &= report(
      "crc32",
      time_levels([&] {
        double acc = 0.0;
        for (int i = 0; i < kCrcIters; ++i) {
          acc += static_cast<double>(store::crc32(crc_buf));
        }
        return acc;
      }),
      static_cast<double>(kCrcBytes) * kCrcIters, rows);

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
