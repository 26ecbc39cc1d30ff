// jaal_doctor — the detection-observability walkthrough: replay a seeded
// Trace-1 deployment, let the traffic shift mid-run, and print a ranked
// diagnosis of what the pipeline thinks of its own detection quality.
//
//   provenance   every alert carries its full causal chain (matched
//                centroids, margins vs tau_d1/tau_d2, threshold case,
//                feedback outcome); dumped as JSONL
//   drift        per-monitor summary-fidelity baselines (SVD energy,
//                k-means inertia, reconstruction error) flag the mid-run
//                traffic shift; the caution signal rises with it
//   scoreboard   a small labeled trial set grounds per-rule precision
//   self-check   the report must be byte-identical across two runs and
//                across threads=1 vs 2, and every alert's margins must
//                reproduce its threshold decision — exit 1 otherwise
//
//   store        the live run persists its operational timeline (per-epoch
//                metrics deltas + flight events) and the offline replay
//                must reproduce the live health report and SLO summary
//                byte-for-byte from the store alone
//
//   $ ./jaal_doctor                      # human-readable ranked diagnosis
//   $ ./jaal_doctor --json               # health JSONL on stdout (CI)
//   $ ./jaal_doctor --store DIR          # offline diagnosis from a store
//   $ ./jaal_doctor --store DIR --json   # offline timeline JSONL on stdout
//   $ ./jaal_doctor --store DIR --epoch N  # one epoch's meta, events, alerts
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "jaal.hpp"

namespace {

using namespace jaal;

summarize::SummarizerConfig doctor_summarizer() {
  summarize::SummarizerConfig scfg;
  scfg.batch_size = 1000;
  scfg.min_batch = 400;
  scfg.rank = 12;
  scfg.centroids = 200;  // k/n = 0.2, the paper's sweet spot
  return scfg;
}

/// The observability knobs of the doctor's deployment.  The offline replay
/// (--store) must use the same knobs the live run had — the drift config
/// parameterizes the reconstructed detectors.
observe::ObserveConfig doctor_observe_config() {
  observe::ObserveConfig ocfg;
  // Six healthy epochs before the shift: let the EWMA baselines settle over
  // most of them so stationary jitter is not judged drift-worthy.
  ocfg.drift_config.warmup = 5;
  ocfg.flight_recorder = true;
  ocfg.slo = true;
  return ocfg;
}

/// Checks that an alert's provenance margins reproduce its threshold
/// decision (the acceptance bar for the causal chain: it must be evidence,
/// not decoration).  Returns an error description, empty when consistent.
std::string check_provenance(const inference::Alert& alert) {
  if (!alert.provenance) return "alert has no provenance attached";
  const observe::AlertProvenance& p = *alert.provenance;
  if (p.centroids.empty()) return "provenance has an empty evidence set";
  if (p.monitors.empty()) return "provenance names no contributing monitors";
  const bool strict = p.threshold_case == observe::ThresholdCase::kStrictMatch;
  for (const observe::CentroidEvidence& c : p.centroids) {
    // Margins must be the recorded thresholds minus the recorded distance.
    if (std::abs((p.tau_d1 - c.distance) - c.margin_d1) > 1e-12 ||
        std::abs((p.tau_d2 - c.distance) - c.margin_d2) > 1e-12) {
      return "centroid margins disagree with distance and thresholds";
    }
    // Every evidence centroid sits inside the threshold that admitted it.
    if (strict ? c.margin_d1 < 0.0 : c.margin_d2 < 0.0) {
      return "evidence centroid outside its admitting threshold";
    }
  }
  if (strict && p.strict_count < p.tau_c) {
    return "case-1 alert with strict count below tau_c";
  }
  if (!strict && (p.loose_count < p.tau_c || p.strict_count >= p.tau_c)) {
    return "case-3 alert whose counts do not straddle tau_c";
  }
  return {};
}

struct DoctorRun {
  std::string provenance_jsonl;
  std::string health_jsonl;  ///< Deployment report (scoreboard empty).
  std::string slo_jsonl;     ///< Live SLO summary (completeness SLI).
  observe::HealthReport report;
  std::size_t alerts = 0;
  std::size_t drift_events = 0;
  std::uint64_t flight_dumps = 0;  ///< Automatic regression dumps taken.
  double final_caution = 0.0;
  /// Wall-clock critical path of the slowest epoch close (display only —
  /// wall times are not part of any determinism check).
  std::optional<telemetry::CriticalPath> worst_profile;
  std::uint64_t worst_epoch = 0;
  std::string dominant_stage;  ///< SLO latency attribution, last epoch.
  std::string error;  ///< First provenance inconsistency, empty when clean.
};

/// One seeded deployment: six Trace-1 epochs carrying a distributed SYN
/// flood, then six epochs after the backbone mix shifts (Trace-2 port mix,
/// triple the rate, heavier flow tail) — the shift is what the drift
/// monitors are there to catch.  Mild transport loss keeps the degraded-mode
/// accounting non-trivial.  The run persists its operational timeline into
/// `store_dir` (wiped first) so the offline replay can be checked against
/// the live report.
DoctorRun run_deployment(std::size_t threads, const std::string& store_dir) {
  std::filesystem::remove_all(store_dir);  // fresh store, no resume
  telemetry::Telemetry tel;  // feeds the persisted per-epoch metrics deltas
  core::JaalConfig cfg;
  cfg.summarizer = doctor_summarizer();
  cfg.monitor_count = 2;
  cfg.epoch_seconds = 1.0;
  cfg.threads = threads;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.faults.seed = 42;
  cfg.faults.drop_rate = 0.05;
  cfg.observe = doctor_observe_config();
  cfg.telemetry = &tel;
  cfg.store_dir = store_dir;
  cfg.store_metrics = true;
  core::JaalController doctor(
      cfg, rules::parse_rules(rules::default_ruleset_text(),
                              core::evaluation_rule_vars()));

  DoctorRun out;
  std::vector<std::shared_ptr<const observe::AlertProvenance>> records;
  std::uint64_t epoch_no = 0;
  auto consume = [&](const std::vector<core::EpochResult>& epochs) {
    for (const core::EpochResult& epoch : epochs) {
      out.drift_events += epoch.drift_events.size();
      out.final_caution = epoch.caution;
      if (epoch.profile) {
        if (!out.worst_profile || epoch.profile->root_inclusive_ms >
                                      out.worst_profile->root_inclusive_ms) {
          out.worst_profile = epoch.profile;
          out.worst_epoch = epoch_no;
        }
        out.dominant_stage = epoch.profile->dominant_stage;
      }
      ++epoch_no;
      for (const inference::Alert& alert : epoch.alerts) {
        ++out.alerts;
        if (out.error.empty()) out.error = check_provenance(alert);
        if (alert.provenance) records.push_back(alert.provenance);
      }
    }
  };

  {  // Phase 1: healthy Trace-1 baseline plus the flood from t=1 s.
    trace::TraceProfile profile = trace::trace1_profile();
    profile.packets_per_second = 2000.0;  // ~2000-pkt epochs: tau_c_scale = 1
    trace::BackgroundTraffic background(profile, 7);
    attack::AttackConfig atk;
    atk.victim_ip = core::evaluation_victim_ip();
    atk.packets_per_second = 5000.0;  // throttled to the 10% injection cap
    atk.start_time = 1.0;
    atk.seed = 11;
    attack::DistributedSynFlood flood(atk);
    trace::TrafficMix mix(background, {&flood}, 0.10);
    consume(doctor.run(mix, 6.0));
  }
  {  // Phase 2: the backbone shifts under the deployment.
    trace::TraceProfile shifted = trace::trace2_profile();
    shifted.packets_per_second = 6000.0;
    shifted.pareto_alpha = 1.05;  // much heavier elephants
    trace::BackgroundTraffic background(shifted, 21);
    consume(doctor.run(background, 6.0));
  }

  out.report = doctor.health_report();
  out.health_jsonl = out.report.to_jsonl();
  out.slo_jsonl = doctor.slo() != nullptr ? doctor.slo()->to_jsonl() : "";
  out.flight_dumps = doctor.flight_recorder() != nullptr
                         ? doctor.flight_recorder()->dumps_taken()
                         : 0;
  out.provenance_jsonl = observe::to_jsonl(records);
  return out;  // ~JaalController finalizes the store (shards truncated)
}

/// Offline replay of one store directory, using the doctor deployment's
/// observability config (monitor count derived from the stored events).
store::StoreDiagnosis diagnose_dir(const std::string& dir,
                                   telemetry::Telemetry* tel) {
  const store::DeploymentStore ro(store::StoreConfig{dir, 64},
                                  /*writable=*/false, tel);
  store::StoreDiagnosisConfig dcfg;
  dcfg.observe = doctor_observe_config();
  return store::diagnose_store(ro, dcfg);
}

std::uint64_t counter_value(const telemetry::Telemetry& tel,
                            const std::string& name) {
  for (const auto& e : tel.metrics.snapshot().entries) {
    if (e.name == name) return e.counter;
  }
  return 0;
}

std::string events_text(const std::vector<observe::FlightEvent>& batch) {
  std::string out;
  for (const observe::FlightEvent& ev : batch) {
    out += observe::to_json(ev) + '\n';
  }
  return out;
}

/// The acceptance bar for point queries: for every committed epoch,
/// epoch_meta_at, events_at and each_alert_line_in_epoch must return what
/// the whole-log walks (each_epoch_meta, each_flight_events,
/// each_alert_line) give for that epoch.  Returns the first disagreement,
/// empty when every epoch agrees.
std::string check_point_queries(const store::DeploymentStore& ro) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> metas;
  ro.each_epoch_meta([&](const store::EpochMeta& m) {
    metas.emplace(m.epoch, store::encode_epoch_meta(m));
    return true;
  });
  std::map<std::uint64_t, std::string> events;
  ro.each_flight_events(
      [&](std::uint64_t epoch, const std::vector<observe::FlightEvent>& b) {
        events.emplace(epoch, events_text(b));
        return true;
      });
  const auto alert_text = [](std::uint32_t sid, std::string_view line) {
    return std::to_string(sid) + ' ' + std::string(line) + '\n';
  };
  std::map<std::uint64_t, std::string> alerts;
  ro.each_alert_line(
      [&](std::uint64_t epoch, std::uint32_t sid, std::string_view line) {
        alerts[epoch] += alert_text(sid, line);
        return true;
      });
  if (metas.empty()) return "store holds no committed epoch";
  for (const auto& [epoch, meta] : metas) {
    const std::string at = " at epoch " + std::to_string(epoch);
    const auto point_meta = ro.epoch_meta_at(epoch);
    if (!point_meta || store::encode_epoch_meta(*point_meta) != meta) {
      return "epoch_meta_at disagrees with each_epoch_meta" + at;
    }
    if (events_text(ro.events_at(epoch)) != events[epoch]) {
      return "events_at disagrees with each_flight_events" + at;
    }
    std::string lines;
    ro.each_alert_line_in_epoch(
        epoch, [&](std::uint32_t sid, std::string_view line) {
          lines += alert_text(sid, line);
          return true;
        });
    if (lines != alerts[epoch]) {
      return "each_alert_line_in_epoch disagrees with each_alert_line" + at;
    }
  }
  return {};
}

/// Offline mode: reconstruct the timeline/diagnosis from `dir` alone.
/// `epoch_query` < 0 means "whole timeline"; otherwise answer point queries
/// for that epoch, report the record bytes they visited, and check every
/// committed epoch's point queries against the whole-log walks.
int run_store_mode(const std::string& dir, long long epoch_query, bool json) {
  telemetry::Telemetry tel;
  if (epoch_query >= 0) {
    const store::DeploymentStore ro(store::StoreConfig{dir, 64},
                                    /*writable=*/false, &tel);
    const auto epoch = static_cast<std::uint64_t>(epoch_query);
    const auto meta = ro.epoch_meta_at(epoch);
    if (!meta) {
      std::fprintf(stderr, "epoch %llu is not committed in %s\n",
                   static_cast<unsigned long long>(epoch), dir.c_str());
      return 1;
    }
    std::printf("{\"kind\":\"epoch_meta\",\"epoch\":%llu,\"end_time\":%.17g,"
                "\"packets\":%llu,\"report_fraction\":%.17g,"
                "\"caution\":%.17g}\n",
                static_cast<unsigned long long>(meta->epoch), meta->end_time,
                static_cast<unsigned long long>(meta->packets),
                meta->report_fraction, meta->caution);
    for (const observe::FlightEvent& ev : ro.events_at(epoch)) {
      std::printf("%s\n", observe::to_json(ev).c_str());
    }
    ro.each_alert_line_in_epoch(epoch,
                                [](std::uint32_t, std::string_view line) {
                                  std::printf("%.*s\n",
                                              static_cast<int>(line.size()),
                                              line.data());
                                  return true;
                                });
    std::fprintf(stderr, "point query: %llu bytes visited\n",
                 static_cast<unsigned long long>(
                     counter_value(tel, "jaal_store_scan_bytes_total")));
    const std::string error = check_point_queries(ro);
    if (!error.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }

  const store::StoreDiagnosis diag = diagnose_dir(dir, &tel);
  if (json) {
    std::fputs(diag.timeline_jsonl.c_str(), stdout);
  } else {
    std::printf("jaal_doctor --store %s: %llu epochs, %llu alerts, "
                "%llu flight events, %llu metrics records, %llu provenance "
                "records\n",
                dir.c_str(), static_cast<unsigned long long>(diag.epochs),
                static_cast<unsigned long long>(diag.alerts),
                static_cast<unsigned long long>(diag.flight_events),
                static_cast<unsigned long long>(diag.metrics_records),
                static_cast<unsigned long long>(diag.provenance_records));
    if (diag.shard_count > 1) {
      // Informational only: the timeline itself is shard-count-invariant.
      std::printf("written by a sharded inference tier (%llu shards)\n",
                  static_cast<unsigned long long>(diag.shard_count));
    }
    std::printf("health reconstruction %s, drift cross-check: %llu "
                "mismatched epochs\n\n",
                diag.health_complete ? "complete" : "partial (no ops stream)",
                static_cast<unsigned long long>(diag.drift_mismatches));
    std::fputs(diag.health.to_text().c_str(), stdout);
    if (!diag.slo_jsonl.empty()) std::fputs(diag.slo_jsonl.c_str(), stdout);
  }
  return diag.drift_mismatches == 0 ? 0 : 1;
}

/// Grounds the per-rule scoreboard in labeled trials: a few positives per
/// attack plus benign negatives, each decided by a fresh engine.
std::vector<observe::RuleScore> build_scoreboard(
    const std::vector<rules::Rule>& ruleset) {
  core::TrialConfig tcfg;
  tcfg.summarizer = doctor_summarizer();
  tcfg.monitor_count = 2;  // 2000-packet window: tau_c_scale = 1
  tcfg.profile = trace::trace1_profile();
  tcfg.attack_intensity_min = 1.0;
  tcfg.attack_intensity_max = 1.0;
  tcfg.seed = 5;
  const std::vector<packet::AttackType> attacks = {
      packet::AttackType::kDistributedSynFlood, packet::AttackType::kPortScan};
  const std::vector<core::Trial> trials =
      core::make_trial_set(attacks, 2, 2, tcfg);

  inference::EngineConfig ecfg;
  ecfg.default_thresholds = {0.008, 0.03};
  ecfg.feedback_enabled = true;
  ecfg.tau_c_scale = core::tau_c_scale_for(tcfg);
  ecfg.record_provenance = false;  // labels, not causal chains, matter here

  std::map<std::uint32_t, observe::RuleScore> scores;
  for (const rules::Rule& rule : ruleset) {
    observe::RuleScore& s = scores[rule.sid];
    s.sid = rule.sid;
    s.msg = rule.msg;
  }
  for (const core::Trial& trial : trials) {
    std::set<std::uint32_t> labeled;
    if (trial.injected != packet::AttackType::kNone) {
      for (std::uint32_t sid : core::sids_for(trial.injected)) {
        labeled.insert(sid);
        ++scores[sid].labeled_trials;
      }
    }
    shard::InferenceTier tier({}, ruleset, ecfg);
    std::set<std::uint32_t> fired;
    for (const inference::Alert& alert :
         tier.infer(trial.aggregate, trial.fetcher())) {
      fired.insert(alert.sid);
    }
    for (std::uint32_t sid : fired) {
      if (labeled.count(sid) > 0) {
        ++scores[sid].true_positives;
      } else {
        ++scores[sid].false_positives;
      }
    }
  }
  std::vector<observe::RuleScore> board;
  board.reserve(scores.size());
  for (auto& [sid, score] : scores) board.push_back(std::move(score));
  return board;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string store_dir;
  long long epoch_query = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--epoch") == 0 && i + 1 < argc) {
      epoch_query = std::atoll(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: jaal_doctor [--json] [--store DIR [--epoch N]]\n");
      return 2;
    }
  }
  if (!store_dir.empty()) {
    try {
      return run_store_mode(store_dir, epoch_query, json);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jaal_doctor --store: %s\n", e.what());
      return 1;
    }
  }

  if (!json) {
    std::printf("jaal_doctor: replaying a seeded Trace-1 deployment "
                "(12 x 1 s epochs, traffic shift at t=6 s)\n");
  }
  const DoctorRun base = run_deployment(1, "jaal_doctor_store.1");
  const DoctorRun rerun = run_deployment(1, "jaal_doctor_store.2");
  const DoctorRun threaded = run_deployment(2, "jaal_doctor_store.3");

  // --- Self-checks: the observability layer is only trustworthy if it is
  // deterministic and its evidence reproduces the decisions it explains.
  bool ok = true;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ok = false;
  };
  if (base.alerts == 0) fail("deployment raised no alerts to explain");
  if (!base.error.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", base.error.c_str());
    ok = false;
  }
  if (base.provenance_jsonl != rerun.provenance_jsonl ||
      base.health_jsonl != rerun.health_jsonl) {
    fail("seeded report did not reproduce byte-for-byte across runs");
  }
  if (base.provenance_jsonl != threaded.provenance_jsonl ||
      base.health_jsonl != threaded.health_jsonl) {
    fail("report differs between threads=1 and threads=2");
  }
  if (base.slo_jsonl.empty() || base.slo_jsonl != rerun.slo_jsonl ||
      base.slo_jsonl != threaded.slo_jsonl) {
    fail("SLO summary not deterministic across runs / thread counts");
  }
  if (base.flight_dumps == 0) {
    fail("no automatic flight dump despite the traffic-shift regression");
  }

  // --- Store round trip: the offline replay must reproduce the live
  // diagnosis byte-for-byte from the persisted records alone, on every
  // store the three runs wrote.
  std::string timeline_jsonl;
  try {
    telemetry::Telemetry store_tel;
    const store::StoreDiagnosis diag =
        diagnose_dir("jaal_doctor_store.1", &store_tel);
    timeline_jsonl = diag.timeline_jsonl;
    if (diag.health.to_jsonl() != base.health_jsonl) {
      fail("offline health report differs from the live one");
    }
    if (diag.slo_jsonl != base.slo_jsonl) {
      fail("offline SLO summary differs from the live one");
    }
    if (!diag.health_complete) {
      fail("stored epochs missing their flight-event close records");
    }
    if (diag.drift_mismatches != 0) {
      fail("stored drift events disagree with the re-derived transitions");
    }
    if (diag.metrics_records != diag.epochs) {
      fail("not every committed epoch carries a metrics delta");
    }
    const store::StoreDiagnosis diag2 =
        diagnose_dir("jaal_doctor_store.2", nullptr);
    const store::StoreDiagnosis diag3 =
        diagnose_dir("jaal_doctor_store.3", nullptr);
    if (diag2.timeline_jsonl != timeline_jsonl ||
        diag3.timeline_jsonl != timeline_jsonl) {
      fail("persisted timeline differs across runs / thread counts");
    }

    const std::string point_error = check_point_queries(
        store::DeploymentStore(store::StoreConfig{"jaal_doctor_store.1", 64},
                               /*writable=*/false));
    if (!point_error.empty()) fail(point_error.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: store round trip: %s\n", e.what());
    ok = false;
  }

  // --- Assemble the operator-facing report: deployment health plus the
  // labeled-trial scoreboard.
  observe::HealthReport report = base.report;
  report.scoreboard = build_scoreboard(rules::parse_rules(
      rules::default_ruleset_text(), core::evaluation_rule_vars()));
  const std::string health_jsonl = report.to_jsonl();

  {
    std::ofstream f("jaal_doctor_provenance.jsonl");
    f << base.provenance_jsonl;
  }
  {
    std::ofstream f("jaal_doctor_health.jsonl");
    f << health_jsonl;
  }
  {
    std::ofstream f("jaal_doctor_timeline.jsonl");
    f << timeline_jsonl;
  }

  if (json) {
    std::fputs(health_jsonl.c_str(), stdout);
  } else {
    std::fputs(report.to_text().c_str(), stdout);
    std::printf("\n%zu alerts explained (%zu provenance records), "
                "%zu drift transitions, final caution %.2f\n",
                base.alerts, base.alerts, base.drift_events,
                base.final_caution);
    if (base.worst_profile) {
      // Where did the wall clock go?  The slowest epoch close's critical
      // path, straight from the live profiler (wall times: informational,
      // never part of the determinism checks above).
      std::printf("\nslowest epoch close: epoch %llu (%.3f ms); SLO latency "
                  "attribution: %s\n",
                  static_cast<unsigned long long>(base.worst_epoch),
                  base.worst_profile->root_inclusive_ms,
                  base.dominant_stage.c_str());
      std::fputs(base.worst_profile->to_text().c_str(), stdout);
    }
    std::fputs(base.slo_jsonl.c_str(), stdout);
    std::printf("wrote jaal_doctor_provenance.jsonl, jaal_doctor_health.jsonl"
                " and jaal_doctor_timeline.jsonl\n");
    std::printf("determinism: provenance, health and store timeline JSONL "
                "byte-identical across runs and thread counts\n");
    std::printf("store round trip: offline diagnosis from "
                "jaal_doctor_store.1 reproduced the live report%s\n",
                ok ? "" : " [FAILED]");
  }
  return ok ? 0 : 1;
}
