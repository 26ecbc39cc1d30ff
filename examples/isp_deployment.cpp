// ISP deployment planning: place monitors on a 367-router Abovenet-like
// topology, balance flows across them with the greedy assigner, and compare
// the network cost of Jaal summaries against raw-packet replication — then
// run a live detection slice and check it raises alerts (the artifact CI
// uploads).
//
//   $ ./isp_deployment
#include <cstdio>
#include <fstream>
#include <vector>

#include "jaal.hpp"

namespace {

using namespace jaal;

/// One seeded detection slice: background plus a SYN flood, 8 monitors.
std::vector<core::EpochResult> run_slice() {
  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 8;
  cfg.epoch_seconds = 0.04;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;

  core::JaalController controller(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));
  trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
  attack::AttackConfig acfg;
  acfg.victim_ip = core::evaluation_victim_ip();
  acfg.start_time = 0.03;
  acfg.packets_per_second = 5000.0;
  acfg.seed = 3;
  attack::SynFlood flood(acfg);
  trace::TrafficMix mix(bg, {&flood}, 0.10);

  return controller.run(mix, 0.3);
}

}  // namespace

int main() {
  using namespace jaal::netsim;

  // 1. The network: RocketFuel-like ISP map ("topology 1").
  const Topology topo = make_isp_topology(abovenet_profile(), 1);
  std::printf("topology: %s, %zu routers, %zu links\n", topo.name().c_str(),
              topo.node_count(), topo.link_count());
  std::size_t edge = 0, agg = 0, backbone = 0;
  for (const Router& r : topo.routers()) {
    switch (r.role) {
      case RouterRole::kEdge: ++edge; break;
      case RouterRole::kAggregation: ++agg; break;
      case RouterRole::kBackbone: ++backbone; break;
    }
  }
  std::printf("  roles: %zu edge, %zu aggregation, %zu backbone\n", edge, agg,
              backbone);

  // 2. Monitor placement: 25 highest-degree transit routers.
  const auto monitors = topo.default_monitor_sites(25);
  std::printf("placed %zu monitors (first five: ", monitors.size());
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("%u%s", monitors[i], i + 1 < 5 ? ", " : ")\n");
  }

  // 3. Flow assignment: flows grouped by the monitors on their routed path;
  //    greedy least-loaded assignment within each group (§6).
  assign::WorkloadConfig wcfg;
  wcfg.monitor_count = monitors.size();
  wcfg.group_count = 12;
  wcfg.flow_count = 6000;
  const assign::Workload workload = assign::make_workload(wcfg);
  assign::GreedyAssigner greedy;
  const auto outcome = assign::simulate_assignment(
      greedy, workload.flows, workload.groups, monitors.size(), 2.0);
  double total_load = 0.0;
  for (double load : outcome.time_avg_load) total_load += load;
  std::printf(
      "\nflow assignment (greedy, P=2s): max monitor load %.0f, mean %.0f "
      "(balance ratio %.2f)\n",
      outcome.max_time_avg_load, total_load / monitors.size(),
      outcome.max_time_avg_load / (total_load / monitors.size()));

  // 4. Network cost: what would raw replication do to this network, and
  //    where does Jaal's ~35% summary budget land?
  const auto demands = random_demands(topo, 400, 8000.0 * 12.0, 7);
  ReplicationExperiment experiment(topo, monitors, monitors.front(), demands,
                                   2.0e7);
  std::printf("\n%-14s %-18s %-16s\n", "replicated %", "throughput loss %",
              "evidence delivered %");
  for (double f : {0.35, 0.7, 1.0}) {
    const ReplicationResult r = experiment.evaluate(f);
    const double loss = 1.0 - (1.0 - r.throughput_loss) *
                                  (1.0 - r.router_throughput_loss);
    std::printf("%-14.0f %-18.1f %-16.1f\n", f * 100.0, 100.0 * loss,
                100.0 * r.copy_delivery_fraction *
                    r.engine_processing_fraction);
  }
  std::printf("\nJaal ships summaries worth ~35%% of raw bytes: the first\n"
              "row bounds its impact; raw replication needs the last.\n");

  // 5. Live detection slice: the seeded traffic through the full pipeline
  //    must raise alerts.
  const std::vector<core::EpochResult> epochs = run_slice();
  std::size_t alerts = 0;
  std::size_t reporting = 0;
  for (const core::EpochResult& e : epochs) {
    alerts += e.alerts.size();
    reporting += e.monitors_reporting;
  }
  std::printf("\nlive detection slice: %zu epochs, %zu summaries aggregated, "
              "%zu alert(s)\n",
              epochs.size(), reporting, alerts);

  // The CI artifact: machine-readable record of the slice.
  {
    std::ofstream out("isp_deployment_slice.json");
    out << "{\"epochs\":" << epochs.size() << ",\"summaries\":" << reporting
        << ",\"alerts\":" << alerts << "}\n";
  }
  std::printf("  artifact written to isp_deployment_slice.json\n");

  if (alerts == 0) {
    std::printf("FAIL: live slice raised no alerts\n");
    return 1;
  }
  return 0;
}
