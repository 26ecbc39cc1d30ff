// Full deployment walkthrough — every subsystem in one program:
//
//   topology        RocketFuel-like Abovenet map (367 routers)
//   placement       coverage-maximizing monitor placement over demands
//   flow groups     derived from routed paths (§6)
//   assignment      AssignmentService fed proto LoadUpdate frames
//   traffic         MAWI-like background + DDoS + Mirai scan (10% cap)
//   epochs          driven by the discrete-event engine
//   summaries       per-monitor SVD + k-means++ batches
//   inference       question vectors, postprocessor, feedback loop
//   correlation     m-of-w window confirmation (§10)
//   latency         summary-collection delay over the topology
//   output          operator JSONL alert log
//
//   $ ./full_deployment
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "jaal.hpp"

int main() {
  using namespace jaal;

  // --- 1. The network and where to watch it.
  const netsim::Topology topo =
      netsim::make_isp_topology(netsim::abovenet_profile(), 1);
  const auto demands = netsim::random_demands(topo, 400, 8000.0, 7);
  const auto sites = assign::place_monitors_coverage(topo, demands, 25);
  std::printf("topology %s: %zu routers; placed 25 monitors covering %.1f%% "
              "of demand\n",
              topo.name().c_str(), topo.node_count(),
              100.0 * assign::coverage_fraction(topo, demands, sites));

  // --- 2. Flow groups from routing; assignment service with load reports.
  std::vector<std::pair<netsim::NodeId, netsim::NodeId>> od_pairs;
  for (const auto& d : demands) od_pairs.emplace_back(d.src, d.dst);
  auto routed = assign::derive_monitor_groups(topo, sites, od_pairs);
  std::printf("derived %zu monitor groups (%zu OD pairs uncovered)\n",
              routed.groups.size(), routed.uncovered_pairs());
  core::AssignmentService assignment(routed.groups, sites.size());
  for (summarize::MonitorId m = 0; m < sites.size(); ++m) {
    // Initial load reports arrive as framed messages, §7-style.
    proto::FrameReader rx;
    rx.feed(proto::encode(proto::Message{proto::LoadUpdate{m, 0.0, 0}}));
    assignment.on_load_update(std::get<proto::LoadUpdate>(*rx.next()));
  }

  // --- 3. Traffic with two concurrent attacks.
  trace::BackgroundTraffic background(trace::trace1_profile(), 2);
  attack::AttackConfig ddos_cfg;
  ddos_cfg.victim_ip = core::evaluation_victim_ip();
  ddos_cfg.packets_per_second = 20000.0;
  ddos_cfg.start_time = 0.15;
  ddos_cfg.seed = 3;
  attack::DistributedSynFlood ddos(ddos_cfg);
  attack::AttackConfig scan_cfg = ddos_cfg;
  scan_cfg.packets_per_second = 8000.0;
  scan_cfg.start_time = 0.30;
  scan_cfg.seed = 4;
  attack::MiraiScan mirai(scan_cfg);
  trace::TrafficMix mix(background, {&ddos, &mirai}, 0.10);

  // --- 4. Monitors; flows stick to their assigned monitor.
  // k/n ~= 0.2 for the per-monitor batch sizes this deployment produces
  // (~350 packets/monitor/epoch across 25 monitors).
  summarize::SummarizerConfig scfg;
  scfg.batch_size = 1000;
  scfg.min_batch = 150;
  scfg.rank = 12;
  scfg.centroids = 64;
  std::vector<core::Monitor> monitors;
  for (summarize::MonitorId m = 0; m < sites.size(); ++m) {
    monitors.emplace_back(m, scfg);
  }
  std::unordered_map<packet::FlowKey, assign::MonitorIndex,
                     packet::FlowKeyHash>
      flow_to_monitor;
  auto monitor_for = [&](const packet::PacketRecord& pkt) {
    const packet::FlowKey key = pkt.flow();
    const auto it = flow_to_monitor.find(key);
    if (it != flow_to_monitor.end()) return it->second;
    // New flow: route it along a pseudo-OD pair and assign greedily within
    // the pair's monitor group.
    const std::size_t pair = packet::FlowKeyHash{}(key) % od_pairs.size();
    std::size_t group = routed.group_of_pair[pair];
    if (group == assign::RoutedGroups::kUncovered) group = 0;
    const auto chosen = assignment.assign(group, 10.0);
    flow_to_monitor.emplace(key, chosen);
    return chosen;
  };

  // --- 5. Inference engine with feedback + correlation + JSONL log.
  const auto ruleset = rules::parse_rules(rules::default_ruleset_text(),
                                          core::evaluation_rule_vars());
  inference::EngineConfig ecfg;
  ecfg.default_thresholds = {0.008, 0.03};
  ecfg.per_rule[1000005] = {0.015, 0.02};  // sockstress's usable range
  ecfg.verify_all_alerts = true;           // §10: raw-confirm every alert
  // The inference tier is the deployment-facing detection API.
  shard::InferenceTier tier({}, ruleset, ecfg);
  inference::AlertCorrelator correlator({3, 2});
  std::ofstream log_file("full_deployment_alerts.jsonl");
  core::AlertLogger logger(log_file);

  const auto collection = netsim::collection_latency(
      topo, sites, sites.front(), /*summary bytes*/ 9000);
  std::printf("summary collection latency: worst %.0f ms over the map\n\n",
              1000.0 * collection.worst);

  // --- 6. Epochs driven by the event engine.
  netsim::EventQueue events;
  constexpr double kEpoch = 0.16;  // ~8500 pkts/epoch over this deployment
  constexpr double kRunFor = 0.96;
  std::uint64_t epoch_packets = 0;

  std::uint64_t epoch_index = 0;
  std::function<void()> close_epoch = [&] {
    tier.begin_epoch(epoch_index++);
    std::size_t reporting = 0;
    for (auto& monitor : monitors) {
      if (auto summary = monitor.flush_epoch()) {
        if (tier.add_summary(*summary)) ++reporting;
      }
    }
    const double now = events.now();
    if (reporting > 0) {
      tier.set_tau_c_scale(static_cast<double>(epoch_packets) / 2000.0);
      const auto alerts = tier.infer_epoch(
          [&](summarize::MonitorId id, const std::vector<std::size_t>& c) {
            return monitors.at(id).raw_packets_for(c);
          });
      const auto confirmed = correlator.observe(alerts);
      (void)logger.log_epoch(now, confirmed);
      std::printf("t=%.2fs: %zu/%zu monitors reported, %llu pkts, "
                  "%zu raw alerts, %zu confirmed\n",
                  now, reporting, monitors.size(),
                  static_cast<unsigned long long>(epoch_packets),
                  alerts.size(), confirmed.size());
      for (const auto& alert : confirmed) {
        std::printf("    sid %u: %s%s\n", alert.sid, alert.msg.c_str(),
                    alert.via_feedback ? " (confirmed via raw feedback)" : "");
      }
    }
    epoch_packets = 0;
    if (now + kEpoch <= kRunFor + 1e-9) events.schedule_in(kEpoch, close_epoch);
  };
  events.schedule(kEpoch, close_epoch);

  // Feed traffic between epoch events.
  while (!events.empty()) {
    const double next_epoch_time = events.now() + kEpoch;
    while (mix.peek_time() < next_epoch_time &&
           mix.peek_time() < kRunFor + kEpoch) {
      const auto pkt = mix.next();
      monitors[monitor_for(pkt)].observe(pkt);
      ++epoch_packets;
    }
    (void)events.step();
  }

  // --- 7. Wrap-up.
  core::CommStats comm;
  for (const auto& monitor : monitors) comm += monitor.comm();
  comm.feedback_bytes = tier.engine().stats().raw_bytes_fetched;
  std::printf(
      "\ntotals: %llu raw header bytes -> %llu summary + %llu feedback "
      "bytes (%.0f%% of raw)\n",
      static_cast<unsigned long long>(comm.raw_header_bytes),
      static_cast<unsigned long long>(comm.summary_bytes),
      static_cast<unsigned long long>(comm.feedback_bytes),
      100.0 * comm.overhead_ratio());
  std::printf("alert log: full_deployment_alerts.jsonl (%llu lines)\n",
              static_cast<unsigned long long>(logger.lines_written()));
  return 0;
}
