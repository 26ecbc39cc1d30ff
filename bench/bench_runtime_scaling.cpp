// Execution-runtime scaling on the multi-monitor epoch-flush workload.
//
// The serial reproduction flushes every monitor's epoch (SVD + k-means over
// its batch) on one thread, so wall clock grows linearly with monitor
// count — the opposite of the paper's premise that monitors summarize
// independently at ISP scale.  This bench drives the same deployment
// (8 monitors, paper-standard n/r/k) through JaalController::close_epoch at
// 1/2/4/8 runtime threads over identical traffic and reports wall-ms and
// speedup per setting: the best of kRounds interleaved epochs each.
// Results are bit-identical across thread counts (asserted here on the
// alert/reporting counts; tests/test_parallel_equivalence.cpp asserts it on
// the full output), so any speedup is free.  Emits BENCH_runtime_scaling.json alongside the table.
#include <chrono>
#include <memory>
#include <span>
#include <thread>

#include "common.hpp"
#include "trace/background.hpp"

namespace {

using namespace jaal;

constexpr std::size_t kMonitors = 8;
constexpr std::size_t kPacketsPerEpoch = 12'000;  // ~1.5k per monitor
constexpr int kRounds = 15;

core::JaalConfig deployment(std::size_t threads) {
  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 1500;
  cfg.summarizer.min_batch = 200;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 150;
  cfg.monitor_count = kMonitors;
  cfg.threads = threads;
  return cfg;
}

}  // namespace

int main() {
  bench::print_header(
      "Runtime scaling: 8-monitor epoch flush, 1/2/4/8 threads");
  std::printf("  hardware threads available: %u\n",
              std::thread::hardware_concurrency());

  // One fixed traffic window, ingested identically for every setting.
  trace::BackgroundTraffic gen(trace::trace1_profile(), 17);
  const std::vector<packet::PacketRecord> window =
      trace::take(gen, kPacketsPerEpoch);

  // On a single-core host the >1-thread settings measure contention, not
  // scaling: the curve would be noise and any assertion on it meaningless.
  // Run the threads=1 row only and tag the JSON so downstream tooling
  // (bench/check_bench_regression.py) skips its scaling checks.
  const bool single_core = std::thread::hardware_concurrency() <= 1;
  static const std::size_t kAllSettings[] = {1, 2, 4, 8};
  const std::span<const std::size_t> thread_settings =
      single_core ? std::span<const std::size_t>(kAllSettings, 1)
                  : std::span<const std::size_t>(kAllSettings);
  if (single_core) {
    std::printf("  single-core host: skipping the scaling curve\n");
  }
  // Host drift must not decide the curve: every round closes one epoch in
  // each setting (the starting setting rotates from round to round), and
  // each setting keeps its best epoch over kRounds.
  const std::size_t settings = thread_settings.size();
  std::vector<std::unique_ptr<core::JaalController>> controllers;
  for (const std::size_t threads : thread_settings) {
    controllers.push_back(std::make_unique<core::JaalController>(
        deployment(threads), bench::evaluation_ruleset()));
  }
  std::vector<double> best_ms(settings, 0.0);
  std::vector<core::EpochResult> last(settings);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < settings; ++k) {
      const std::size_t s = (static_cast<std::size_t>(round) + k) % settings;
      core::JaalController& controller = *controllers[s];
      for (const auto& pkt : window) controller.ingest(pkt);
      const auto start = std::chrono::steady_clock::now();
      last[s] = controller.close_epoch(static_cast<double>(round));
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (round == 0 || ms < best_ms[s]) best_ms[s] = ms;
    }
  }

  std::vector<std::vector<std::pair<std::string, double>>> rows;
  std::printf("  threads   wall-ms   speedup   monitors-reporting\n");
  for (std::size_t s = 0; s < settings; ++s) {
    const std::size_t threads = thread_settings[s];
    if (last[s].monitors_reporting != last[0].monitors_reporting ||
        last[s].alerts.size() != last[0].alerts.size()) {
      std::printf("  DETERMINISM VIOLATION at threads=%zu\n", threads);
      return 1;
    }
    const double speedup = best_ms[s] > 0.0 ? best_ms[0] / best_ms[s] : 0.0;
    std::printf("  %7zu  %8.1f  %8.2fx  %9zu\n", threads, best_ms[s], speedup,
                last[s].monitors_reporting);
    rows.push_back({{"threads", static_cast<double>(threads)},
                    {"wall_ms", best_ms[s]},
                    {"speedup", speedup}});

    if (const auto stats = controllers[s]->runtime_stats()) {
      std::printf("%s", core::describe(*stats).c_str());
    }
  }

  bench::write_bench_json(
      "runtime_scaling", rows,
      single_core ? std::vector<std::pair<std::string, std::string>>{
                        {"skipped_single_core", "true"}}
                  : std::vector<std::pair<std::string, std::string>>{});
  return 0;
}
