// Store bench: append and replay throughput of the src/store persistence
// layer.  A short live run seeds realistic summaries; the bench then
// streams thousands of epochs of them through a DeploymentStore (append +
// commit protocol, shard rolls included), scans the resulting log
// zero-copy, and replays it through the inference engine.
//
//   $ ./bench_store
//
// Emits BENCH_store.json; the *_per_sec keys are tracked against
// bench/baselines/BENCH_store.json by bench/check_bench_regression.py.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "common.hpp"
#include "core/controller.hpp"
#include "store/replay.hpp"
#include "store/store.hpp"
#include "trace/background.hpp"

namespace {

using namespace jaal;
namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Realistic summaries to stream: whatever a short live deployment stored.
std::vector<summarize::MonitorSummary> seed_summaries(const fs::path& dir) {
  core::JaalConfig cfg;
  cfg.monitor_count = 3;
  cfg.epoch_seconds = 0.04;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.engine.default_thresholds = {0.02, 0.02};
  cfg.engine.feedback_enabled = false;
  cfg.store_dir = dir.string();
  core::JaalController controller(cfg, bench::evaluation_ruleset());
  trace::BackgroundTraffic gen(trace::trace1_profile(), 31);
  (void)controller.run(gen, 0.3);

  std::vector<summarize::MonitorSummary> out;
  store::DeploymentStore reader({dir.string(), 64}, /*writable=*/false);
  reader.each_summary([&](std::uint64_t, std::uint32_t,
                          const summarize::MonitorSummary& s) {
    out.push_back(s);
    return true;
  });
  return out;
}

}  // namespace

int main() {
  bench::print_header("store: append / scan / replay throughput");

  const fs::path base =
      fs::temp_directory_path() / "jaal_bench_store";
  fs::remove_all(base);
  fs::create_directories(base);

  const auto corpus = seed_summaries(base / "seed");
  if (corpus.empty()) {
    std::fprintf(stderr, "seed run produced no summaries\n");
    return 1;
  }
  constexpr std::size_t kEpochs = 2000;
  constexpr std::size_t kPerEpoch = 3;
  std::uint64_t payload_bytes = 0;
  for (const auto& s : corpus) {
    payload_bytes += summarize::serialize(s).size();
  }
  payload_bytes = payload_bytes / corpus.size() * kEpochs * kPerEpoch;

  // ---- append: the per-epoch hot path, commit record and rolls included.
  const fs::path big = base / "big";
  double append_s = 0.0;
  {
    store::DeploymentStore store({big.string(), 64}, /*writable=*/true);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t m = 0; m < kPerEpoch; ++m) {
        store.put_summary(e, corpus[next++ % corpus.size()]);
      }
      store.commit_epoch({e, static_cast<double>(e), 2000, 1.0, 0.0});
    }
    store.sync();
    append_s = seconds_since(t0);
    if (store.failed()) {
      std::fprintf(stderr, "store failed during append\n");
      return 1;
    }
  }
  const double append_summaries_per_sec =
      static_cast<double>(kEpochs * kPerEpoch) / append_s;
  const double append_mb_per_sec =
      static_cast<double>(payload_bytes) / 1e6 / append_s;

  // ---- scan: zero-copy walk of every record in the log.
  double scan_s = 0.0;
  std::uint64_t scanned_bytes = 0, scanned_records = 0;
  {
    store::DeploymentStore store({big.string(), 64}, /*writable=*/false);
    const auto t0 = std::chrono::steady_clock::now();
    store.log().for_each([&](const store::RecordView& r) {
      scanned_bytes += r.payload.size();
      ++scanned_records;
      return true;
    });
    scan_s = seconds_since(t0);
  }
  const double scan_records_per_sec =
      static_cast<double>(scanned_records) / scan_s;
  const double scan_mb_per_sec =
      static_cast<double>(scanned_bytes) / 1e6 / scan_s;

  // ---- replay: deserialize + aggregate + infer over every stored epoch.
  double replay_s = 0.0;
  std::size_t replayed = 0, replay_alerts = 0;
  {
    inference::InferenceEngine engine(
        bench::evaluation_ruleset(),
        bench::operating_point(1.8, /*feedback=*/false));
    store::StoreReplayer replayer({big.string(), 64});
    const auto t0 = std::chrono::steady_clock::now();
    const auto epochs = replayer.replay(engine, 1.8);
    replay_s = seconds_since(t0);
    replayed = epochs.size();
    for (const auto& e : epochs) replay_alerts += e.alerts.size();
  }
  const double replay_epochs_per_sec =
      static_cast<double>(replayed) / replay_s;

  std::printf("  corpus: %zu live summaries, %zu epochs x %zu/epoch\n",
              corpus.size(), kEpochs, kPerEpoch);
  std::printf("  append: %8.0f summaries/s  %7.1f MB/s  (%.3f s)\n",
              append_summaries_per_sec, append_mb_per_sec, append_s);
  std::printf("  scan:   %8.0f records/s    %7.1f MB/s  (%.3f s)\n",
              scan_records_per_sec, scan_mb_per_sec, scan_s);
  std::printf("  replay: %8.0f epochs/s    %zu alert(s)  (%.3f s)\n",
              replay_epochs_per_sec, replay_alerts, replay_s);

  bench::write_bench_json(
      "store",
      {
          {{"append", 1},
           {"summaries_per_sec", append_summaries_per_sec},
           {"mb_per_sec", append_mb_per_sec}},
          {{"scan", 1},
           {"records_per_sec", scan_records_per_sec},
           {"mb_per_sec", scan_mb_per_sec}},
          {{"replay", 1}, {"epochs_per_sec", replay_epochs_per_sec}},
      },
      {{"epochs", std::to_string(kEpochs)},
       {"summaries_per_epoch", std::to_string(kPerEpoch)}});

  fs::remove_all(base);
  return 0;
}
