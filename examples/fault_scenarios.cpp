// Fault scenarios: detection quality versus control-plane loss.
//
// Runs the same seeded deployment (MAWI-like background plus a distributed
// SYN flood) under increasing monitor->engine summary loss, plus one
// crash-and-restart scenario, and prints a detection-quality table: the
// point of the resilience layer is that quality degrades *gracefully* with
// loss — partial epochs still aggregate and the engine rescales its count
// thresholds — instead of falling off a cliff.  Also emits the table as CSV
// (fault_scenarios_table.csv, the CI artifact) and self-checks that a
// seeded scenario reproduces byte-identically.
//
//   $ ./fault_scenarios
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jaal.hpp"

namespace {

using namespace jaal;

constexpr double kAttackStart = 1.0;  // seconds into the run
constexpr double kDuration = 6.0;     // 1 s epochs -> 6 epochs per run

struct RunOutcome {
  double tpr = 0.0;            ///< Attack epochs that raised the flood sid.
  double fpr = 0.0;            ///< Benign epochs that raised it anyway.
  double mean_confidence = 1.0;  ///< Mean report fraction, attack epochs.
  /// Provenance columns: mean evidence margin over all raised alerts (how
  /// far inside its admitting threshold the average matched centroid sat)
  /// and how many feedback retrievals fell back to summary-only decisions.
  double mean_margin = 0.0;
  std::uint64_t feedback_fallbacks = 0;
  /// Summaries refused by a down inference tier (ShardCrashWindow).
  std::uint64_t tier_lost = 0;
  faults::TransportStats transport;
  std::string fingerprint;     ///< Serialized alerts (determinism check).
};

/// One 6-epoch deployment: 4 monitors, 1 s epochs, with (`attack` = true) or
/// without the flood.  Everything is seeded; faults come from `scenario`
/// (transport faults to the transport, shard_crashes to the inference
/// tier).
RunOutcome run_once(const faults::FaultScenario& scenario, bool attack) {
  trace::TraceProfile profile = trace::trace1_profile();
  profile.packets_per_second = 4000.0;
  trace::BackgroundTraffic background(profile, 7);
  attack::AttackConfig atk;
  atk.victim_ip = core::evaluation_victim_ip();
  atk.packets_per_second = 10000.0;
  atk.start_time = kAttackStart;
  atk.seed = 11;
  attack::DistributedSynFlood flood(atk);
  std::vector<trace::PacketSource*> attacks;
  if (attack) attacks.push_back(&flood);
  trace::TrafficMix mix(background, attacks, 0.10);

  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 1200;
  cfg.summarizer.min_batch = 400;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 200;
  cfg.monitor_count = 4;
  cfg.epoch_seconds = 1.0;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.faults = scenario;
  core::JaalController jaal(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));

  const auto& sids = core::sids_for(packet::AttackType::kDistributedSynFlood);
  RunOutcome out;
  std::ostringstream fp;
  fp.precision(17);
  std::size_t attack_epochs = 0, benign_epochs = 0, tp = 0, fp_count = 0;
  double confidence_sum = 0.0;
  double margin_sum = 0.0;
  std::size_t margin_count = 0;
  for (const core::EpochResult& epoch : jaal.run(mix, kDuration)) {
    out.tier_lost += epoch.summaries_lost_shard;
    bool hit = false;
    for (const auto& alert : epoch.alerts) {
      for (std::uint32_t sid : sids) hit |= alert.sid == sid;
      fp << epoch.end_time << ' ' << alert.sid << ' '
         << alert.matched_packets << ' ' << alert.confidence << '\n';
      if (alert.provenance) {
        margin_sum += alert.provenance->mean_margin();
        ++margin_count;
        out.feedback_fallbacks +=
            alert.provenance->feedback.fallback ? 1 : 0;
      }
    }
    // An epoch is an attack window once the flood has been active for its
    // whole span (it starts mid-epoch at kAttackStart).
    const bool positive = attack && epoch.end_time >= kAttackStart + 1.0;
    if (positive) {
      ++attack_epochs;
      tp += hit ? 1 : 0;
      confidence_sum += epoch.report_fraction;
    } else if (!attack) {
      ++benign_epochs;
      fp_count += hit ? 1 : 0;
    }
  }
  if (attack_epochs > 0) {
    out.tpr = static_cast<double>(tp) / static_cast<double>(attack_epochs);
    out.mean_confidence = confidence_sum / static_cast<double>(attack_epochs);
  }
  if (benign_epochs > 0) {
    out.fpr =
        static_cast<double>(fp_count) / static_cast<double>(benign_epochs);
  }
  if (margin_count > 0) {
    out.mean_margin = margin_sum / static_cast<double>(margin_count);
  }
  out.transport = jaal.fault_stats();
  out.fingerprint = fp.str();
  return out;
}

struct Row {
  std::string label;
  RunOutcome attack;
  RunOutcome benign;
};

Row run_scenario(const std::string& label,
                 const faults::FaultScenario& scenario) {
  return {label, run_once(scenario, true), run_once(scenario, false)};
}

}  // namespace

int main() {
  // Loss sweep: i.i.d. summary drops at increasing rates.
  const double kLossRates[] = {0.00, 0.05, 0.15, 0.30, 0.50};
  std::vector<Row> rows;
  for (double rate : kLossRates) {
    faults::FaultScenario scenario;
    scenario.seed = 42;
    scenario.drop_rate = rate;
    char label[32];
    std::snprintf(label, sizeof label, "drop %.0f%%", 100.0 * rate);
    rows.push_back(run_scenario(label, scenario));
  }
  // Crash scenario: 5% loss plus monitor 2 down for epoch 3.
  {
    faults::FaultScenario scenario;
    scenario.seed = 42;
    scenario.drop_rate = 0.05;
    scenario.crashes.push_back({2, 3, 4});
    rows.push_back(run_scenario("5% + crash@3", scenario));
  }
  // Tier-outage scenario: the inference tier is down for epoch 3 — it
  // refuses every summary and the report fraction drops; the deployment
  // degrades instead of crashing.
  {
    faults::FaultScenario scenario;
    scenario.seed = 42;
    faults::ShardCrashWindow w;
    w.crash_epoch = 3;
    w.restart_epoch = 4;
    scenario.shard_crashes.push_back(w);
    rows.push_back(run_scenario("tier down@3", scenario));
  }

  std::printf("detection quality vs control-plane loss (4 monitors, "
              "6 x 1 s epochs, distributed SYN flood from t=%.0f s)\n\n",
              kAttackStart);
  std::printf("%-14s %9s %9s %9s %10s %11s %9s %6s %12s %10s\n", "scenario",
              "delivered", "dropped", "crashed", "tier_lost", "confidence",
              "TPR", "FPR", "mean_margin", "fallbacks");
  std::ofstream csv("fault_scenarios_table.csv");
  csv << "scenario,delivered,dropped,crashed_epochs,tier_lost,"
         "mean_confidence,tpr,fpr,mean_margin,feedback_fallbacks\n";
  for (const Row& row : rows) {
    const faults::TransportStats& t = row.attack.transport;
    std::printf(
        "%-14s %9llu %9llu %9llu %10llu %11.2f %9.2f %6.2f %12.4f %10llu\n",
        row.label.c_str(),
        static_cast<unsigned long long>(t.summaries_delivered),
        static_cast<unsigned long long>(t.summaries_dropped),
        static_cast<unsigned long long>(t.crashed_monitor_epochs),
        static_cast<unsigned long long>(row.attack.tier_lost),
        row.attack.mean_confidence, row.attack.tpr, row.benign.fpr,
        row.attack.mean_margin,
        static_cast<unsigned long long>(row.attack.feedback_fallbacks));
    csv << row.label << ',' << t.summaries_delivered << ','
        << t.summaries_dropped << ',' << t.crashed_monitor_epochs << ','
        << row.attack.tier_lost << ',' << row.attack.mean_confidence << ','
        << row.attack.tpr << ',' << row.benign.fpr << ','
        << row.attack.mean_margin << ',' << row.attack.feedback_fallbacks
        << '\n';
  }
  std::printf("\ntable written to fault_scenarios_table.csv\n");

  // Graceful-degradation check: moderate loss must not zero out detection.
  const double baseline_tpr = rows.front().attack.tpr;
  const double moderate_tpr = rows[2].attack.tpr;  // 15% loss
  if (baseline_tpr == 0.0) {
    std::printf("FAIL: no detection even without faults\n");
    return 1;
  }
  if (moderate_tpr < 0.5 * baseline_tpr) {
    std::printf("FAIL: detection fell off a cliff at 15%% loss "
                "(TPR %.2f -> %.2f)\n",
                baseline_tpr, moderate_tpr);
    return 1;
  }
  std::printf("graceful degradation: TPR %.2f (no loss) -> %.2f (15%% loss)"
              " -> %.2f (50%% loss)\n",
              baseline_tpr, moderate_tpr, rows[4].attack.tpr);

  // Tier-outage check: the outage must surface as refused summaries, never
  // as a crash or a zeroed detection rate.
  const Row& outage_row = rows.back();
  if (outage_row.attack.tier_lost == 0) {
    std::printf("FAIL: tier outage window refused nothing\n");
    return 1;
  }
  if (outage_row.attack.tpr == 0.0) {
    std::printf("FAIL: a one-epoch tier outage zeroed out detection\n");
    return 1;
  }
  std::printf("tier outage: %llu summaries refused, TPR held at %.2f\n",
              static_cast<unsigned long long>(outage_row.attack.tier_lost),
              outage_row.attack.tpr);

  // Determinism self-check: the seeded crash scenario reproduces exactly.
  faults::FaultScenario repeat;
  repeat.seed = 42;
  repeat.drop_rate = 0.05;
  repeat.crashes.push_back({2, 3, 4});
  if (run_once(repeat, true).fingerprint !=
      rows[rows.size() - 2].attack.fingerprint) {
    std::printf("FAIL: seeded scenario did not reproduce\n");
    return 1;
  }
  std::printf("determinism: seeded crash scenario reproduced byte-for-byte\n");
  return 0;
}
