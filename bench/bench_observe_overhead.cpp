// Observability overhead on the per-epoch hot path.
//
// The acceptance bar is that observability is close to free: provenance
// capture happens in the engine's serial decision phase from distances
// Algorithm 1 computes anyway, the drift monitors are three EWMA updates
// per monitor per epoch, and the operational layer added on top — flight
// recorder, SLO tracking, telemetry and per-epoch kMetrics/kEvents store
// records — is a handful of struct copies plus a few store appends.
// Provenance stays on the in-memory alerts; the store never writes it.
//
// This bench drives the same seeded 4-monitor deployment through
// JaalController::close_epoch under four settings — everything off,
// drift-only, detection observability (provenance + drift), and the full
// operational stack (flight recorder + SLO + telemetry + a store with
// store_metrics) — plus a fifth, tracing_full, which adds the per-epoch
// critical-path profiler (span drain + tree rebuild + straggler scan, both
// duration modes) on top of full_ops.  Only full_ops and tracing_full
// write a store, so their ratios include the store's serial appends of
// the epoch's summaries, alerts, ops records and commit record.
//
// Host drift must not decide the verdict, so the modes are interleaved:
// every round closes one epoch in each mode (the starting mode rotates
// from round to round), and each mode's overhead is the median over rounds
// of its per-round ratio against off.  The full_ops median must stay
// within 3% of off and tracing_full within 5% (the acceptance bars); the
// bench exits 1 past either.
// Emits BENCH_observe_overhead.json alongside the table; epochs_per_sec is
// the key bench/check_bench_regression.py tracks.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>

#include "attack/generators.hpp"
#include "common.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/background.hpp"
#include "trace/mix.hpp"

namespace {

using namespace jaal;

constexpr std::size_t kMonitors = 4;
constexpr std::size_t kPacketsPerEpoch = 6'000;  // ~1.5k per monitor
constexpr int kRounds = 101;
constexpr double kFullOpsOverheadMax = 1.03;
constexpr double kTracingFullOverheadMax = 1.05;

struct Mode {
  const char* name;
  bool provenance;
  bool drift;
  bool ops;      ///< flight recorder + SLO + telemetry + store_metrics
  bool profile;  ///< per-epoch critical-path profiler (needs ops)
};

core::JaalConfig deployment(const Mode& mode, telemetry::Telemetry* tel,
                            const std::string& store_dir) {
  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 1500;
  cfg.summarizer.min_batch = 200;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 150;
  cfg.monitor_count = kMonitors;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.observe.provenance = mode.provenance;
  cfg.observe.drift = mode.drift;
  cfg.observe.profile = mode.profile;
  if (mode.ops) {
    cfg.observe.flight_recorder = true;
    cfg.observe.slo = true;
    cfg.telemetry = tel;
    cfg.store_dir = store_dir;
    cfg.store_metrics = true;
  }
  return cfg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  bench::print_header(
      "Observability overhead: provenance/drift/ops stack vs off, "
      "4-monitor epochs");

  // One fixed traffic window (background plus a SYN flood so alerts — and
  // thus provenance records — are actually raised), ingested identically
  // for every mode.
  trace::TraceProfile profile = trace::trace1_profile();
  trace::BackgroundTraffic background(profile, 17);
  attack::AttackConfig atk;
  atk.victim_ip = core::evaluation_victim_ip();
  atk.packets_per_second = 5000.0;
  atk.seed = 11;
  attack::DistributedSynFlood flood(atk);
  trace::TrafficMix mix(background, {&flood}, 0.10);
  const std::vector<packet::PacketRecord> window =
      trace::take(mix, kPacketsPerEpoch);

  const std::string store_dir = "bench_observe_overhead_store";
  const Mode modes[] = {
      {"off", false, false, false, false},
      {"drift_only", false, true, false, false},
      {"full", true, true, false, false},
      {"full_ops", true, true, true, false},
      {"tracing_full", true, true, true, true},
  };
  constexpr int kModes = static_cast<int>(std::size(modes));

  // One live deployment per mode, each with its own telemetry and store.
  std::vector<std::unique_ptr<telemetry::Telemetry>> tels;
  std::vector<std::unique_ptr<core::JaalController>> controllers;
  for (const Mode& mode : modes) {
    const std::string dir = store_dir + "_" + mode.name;
    std::filesystem::remove_all(dir);
    tels.push_back(std::make_unique<telemetry::Telemetry>());
    controllers.push_back(std::make_unique<core::JaalController>(
        deployment(mode, tels.back().get(), dir),
        bench::evaluation_ruleset()));
  }

  std::vector<std::vector<double>> ms(kModes);     // per mode, per round
  std::vector<std::vector<double>> ratio(kModes);  // against off, per round
  std::vector<core::EpochResult> last(kModes);
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kModes; ++k) {
      const int m = (round + k) % kModes;
      core::JaalController& controller = *controllers[m];
      for (const auto& pkt : window) controller.ingest(pkt);
      const auto start = std::chrono::steady_clock::now();
      last[m] = controller.close_epoch(static_cast<double>(round));
      ms[m].push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    for (int m = 0; m < kModes; ++m) {
      ratio[m].push_back(ms[m].back() / ms[0].back());
    }
  }

  std::vector<std::vector<std::pair<std::string, double>>> rows;
  double full_ops_ratio = 0.0;
  double tracing_ratio = 0.0;
  const std::size_t base_alerts = last[0].alerts.size();
  std::printf("  mode          wall-ms   vs-off   alerts  provenance\n");
  for (int m = 0; m < kModes; ++m) {
    const Mode& mode = modes[m];
    const core::EpochResult& epoch = last[m];
    std::size_t with_provenance = 0;
    for (const auto& alert : epoch.alerts) {
      with_provenance += alert.provenance ? 1 : 0;
    }
    // Observability must never change the detection outcome.
    if (epoch.alerts.size() != base_alerts) {
      std::printf("  FAIL: mode %s changed the alert count (%zu vs %zu)\n",
                  mode.name, epoch.alerts.size(), base_alerts);
      return 1;
    }
    // Provenance records must track the toggle exactly.
    if (with_provenance != (mode.provenance ? epoch.alerts.size() : 0)) {
      std::printf("  FAIL: mode %s attached provenance to %zu of %zu alerts\n",
                  mode.name, with_provenance, epoch.alerts.size());
      return 1;
    }
    // Profiling must actually run in tracing_full (every closed epoch
    // carries a critical path) and stay off everywhere else.
    if (epoch.profile.has_value() != mode.profile) {
      std::printf("  FAIL: mode %s epoch profile %s\n", mode.name,
                  mode.profile ? "missing" : "unexpectedly present");
      return 1;
    }
    const double wall_ms = median(ms[m]);
    const double vs_off = median(ratio[m]);
    if (mode.ops && !mode.profile) full_ops_ratio = vs_off;
    if (mode.profile) tracing_ratio = vs_off;
    std::printf("  %-12s %8.1f  %6.3fx  %6zu  %10zu\n", mode.name, wall_ms,
                vs_off, epoch.alerts.size(), with_provenance);
    rows.push_back({{"mode", static_cast<double>(m)},
                    {"provenance", mode.provenance ? 1.0 : 0.0},
                    {"drift", mode.drift ? 1.0 : 0.0},
                    {"ops", mode.ops ? 1.0 : 0.0},
                    {"profile", mode.profile ? 1.0 : 0.0},
                    {"wall_ms", wall_ms},
                    {"epochs_per_sec", wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0},
                    {"vs_off", vs_off},
                    {"alerts", static_cast<double>(epoch.alerts.size())}});
  }
  controllers.clear();
  for (const Mode& mode : modes) {
    std::filesystem::remove_all(store_dir + "_" + mode.name);
  }

  bench::write_bench_json("observe_overhead", rows);

  if (full_ops_ratio > kFullOpsOverheadMax) {
    std::printf(
        "  FAIL: full_ops overhead %.3fx exceeds the %.2fx acceptance bar\n",
        full_ops_ratio, kFullOpsOverheadMax);
    return 1;
  }
  if (tracing_ratio > kTracingFullOverheadMax) {
    std::printf(
        "  FAIL: tracing_full overhead %.3fx exceeds the %.2fx acceptance "
        "bar\n",
        tracing_ratio, kTracingFullOverheadMax);
    return 1;
  }
  std::printf(
      "  full_ops overhead %.3fx within %.2fx; tracing_full %.3fx within "
      "%.2fx\n",
      full_ops_ratio, kFullOpsOverheadMax, tracing_ratio,
      kTracingFullOverheadMax);
  return 0;
}
