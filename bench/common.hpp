// Shared helpers for the evaluation benches (one binary per paper
// table/figure).  Each bench prints the rows/series of its figure; absolute
// numbers come from the simulated substrate, so EXPERIMENTS.md records the
// shape comparison against the paper.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"

// Commit the bench binary was built from; injected by bench/CMakeLists.txt
// at configure time so every BENCH_*.json records its provenance.
#ifndef JAAL_GIT_SHA
#define JAAL_GIT_SHA "unknown"
#endif
// CMAKE_BUILD_TYPE of the bench, injected the same way: -O2 and -O3 timings
// are not comparable, so the regression gate keys baselines off it too.
#ifndef JAAL_BUILD_TYPE
#define JAAL_BUILD_TYPE "unknown"
#endif

namespace jaal::bench {

inline const std::vector<rules::Rule>& evaluation_ruleset() {
  static const std::vector<rules::Rule> kRules = rules::parse_rules(
      rules::default_ruleset_text(), core::evaluation_rule_vars());
  return kRules;
}

/// Paper-standard trial configuration: n-packet batches, rank r, k
/// centroids, M monitors, Trace 1 background, 10% attack injection.
inline core::TrialConfig trial_config(std::size_t n, std::size_t r,
                                      std::size_t k, std::size_t monitors = 3,
                                      std::uint64_t seed = 1) {
  core::TrialConfig cfg;
  cfg.summarizer.batch_size = n;
  cfg.summarizer.min_batch = n / 2;
  cfg.summarizer.rank = r;
  cfg.summarizer.centroids = k;
  cfg.monitor_count = monitors;
  cfg.profile = trace::trace1_profile();
  cfg.seed = seed;
  return cfg;
}

/// The tau_d sweep used for ROC curves.
inline std::vector<double> roc_taus() {
  return {0.0005, 0.001, 0.002, 0.004, 0.008, 0.015, 0.03, 0.06, 0.12};
}

/// The paper's chosen per-attack operating point (strict/loose pair for the
/// feedback loop; tau_d1 == tau_d2 when feedback is off).
inline inference::EngineConfig operating_point(double tau_c_scale,
                                               bool feedback) {
  inference::EngineConfig cfg;
  cfg.default_thresholds = feedback
                               ? inference::ThresholdPair{0.008, 0.03}
                               : inference::ThresholdPair{0.015, 0.015};
  cfg.feedback_enabled = feedback;
  cfg.tau_c_scale = tau_c_scale;
  return cfg;
}

/// Machine-readable companion to a bench's human-readable table: writes
/// BENCH_<name>.json in the working directory (or `path` when given) with
/// one object per row, so the perf trajectory is trackable across PRs by
/// diffing/plotting the JSON instead of scraping stdout.  Row order and key
/// order are preserved.  A "meta" object records the build commit, the
/// build type and the machine's hardware concurrency, so a perf delta in the
/// trajectory can be attributed to code vs. build vs. host (bench/check_bench_regression.py keys off
/// it).  `extra_meta` appends raw JSON values under additional meta keys —
/// the value string is emitted verbatim, so pass `"true"`, `"3"`, or
/// `"\"avx2\""` as appropriate.
inline void write_bench_json(
    const std::string& bench,
    const std::vector<std::vector<std::pair<std::string, double>>>& rows,
    const std::vector<std::pair<std::string, std::string>>& extra_meta = {},
    const std::string& path = "") {
  const std::string file = path.empty() ? "BENCH_" + bench + ".json" : path;
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", file.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench.c_str());
  std::fprintf(f,
               "  \"meta\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
               "\"hardware_concurrency\": %u",
               JAAL_GIT_SHA, JAAL_BUILD_TYPE,
               std::thread::hardware_concurrency());
  for (const auto& [key, raw_value] : extra_meta) {
    std::fprintf(f, ", \"%s\": %s", key.c_str(), raw_value.c_str());
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(f, "    {");
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      std::fprintf(f, "%s\"%s\": %.6g", c == 0 ? "" : ", ",
                   rows[r][c].first.c_str(), rows[r][c].second);
    }
    std::fprintf(f, "}%s\n", r + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", file.c_str());
}

inline void print_header(const std::string& title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================================\n");
}

inline void print_roc(const core::RocCurve& curve) {
  const core::RocCurve env = curve.envelope();
  std::printf("  %-24s tau_d    tau_c_x   FPR     TPR\n", curve.label.c_str());
  for (const auto& p : env.points) {
    std::printf("  %-24s %.4f  %6.2f  %6.3f  %6.3f\n", "", p.tau_d,
                p.tau_c_scale, p.fpr, p.tpr);
  }
  std::printf("  %-24s AUC = %.3f, TPR@FPR<=0.10 = %.3f\n", "", curve.auc(),
              curve.tpr_at_fpr(0.10));
}

/// One BENCH_roc_*.json row: the curve's AUC and TPR at FPR <= 0.10, keyed
/// by (k, r, attack) with the attack as its AttackType value (1 syn_flood
/// ... 5 sockstress).
/// bench/check_bench_regression.py holds per-attack AUC floors on them.
inline std::vector<std::pair<std::string, double>> roc_row(
    std::size_t k, std::size_t r, packet::AttackType attack,
    const core::RocCurve& curve) {
  return {{"k", static_cast<double>(k)},
          {"r", static_cast<double>(r)},
          {"attack", static_cast<double>(attack)},
          {"auc", curve.auc()},
          {"tpr_at_fpr_0.10", curve.tpr_at_fpr(0.10)}};
}

}  // namespace jaal::bench
