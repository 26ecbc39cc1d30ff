// Determinism contract of the inference tier: the deployment's observable
// output — alerts, provenance, store bytes, the offline doctor timeline — is
// byte-identical at every thread count, under clean and faulted scenarios
// alike, and a tier outage degrades the epoch instead of crashing it.  The
// suite name and most test names date from the sharded tier this one
// engine replaced; they are kept so results stay comparable across
// versions.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "attack/generators.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "inference/alert_json.hpp"
#include "observe/provenance.hpp"
#include "shard/tier.hpp"
#include "store/doctor.hpp"
#include "store/replay.hpp"
#include "store/store.hpp"
#include "telemetry/export.hpp"
#include "trace/mix.hpp"

namespace jaal::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("jaal_tier_test_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::vector<rules::Rule> ruleset() {
  return rules::parse_rules(rules::default_ruleset_text(),
                            evaluation_rule_vars());
}

// ------------------------------------------------- aggregation policy

TEST(AggregationPolicy, NegativeDeadlineThrowsAtConstruction) {
  JaalConfig cfg;
  cfg.aggregation.deadline_s = -1.0;
  EXPECT_THROW(JaalController(cfg, ruleset()), std::invalid_argument);
  cfg.aggregation.deadline_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(JaalController(cfg, ruleset()), std::invalid_argument);
}

TEST(InferenceTier, RejectsShardFaultWindowsOutOfRange) {
  faults::ShardCrashWindow w;
  w.crash_epoch = 5;
  w.restart_epoch = 3;
  EXPECT_THROW(shard::InferenceTier({}, ruleset(), {}, {}, {w}),
               std::invalid_argument);
  w.restart_epoch = 5;  // empty window: a no-op, not an error
  EXPECT_NO_THROW(shard::InferenceTier({}, ruleset(), {}, {}, {w}));
}

TEST(InferenceTier, EpochAfterAFullOneStartsEmpty) {
  // The tier recycles its aggregate's buffers across epochs; an epoch that
  // aggregates nothing must still expose an empty aggregate, not the rows
  // of the epoch before.
  faults::ShardCrashWindow outage;
  outage.crash_epoch = 3;
  outage.restart_epoch = 4;
  shard::InferenceTier tier({}, ruleset(), {}, {}, {outage});
  summarize::CombinedSummary full;
  full.centroids = linalg::Matrix(40, packet::kFieldCount);
  for (double& v : full.centroids.data()) v = 0.5;
  full.counts.assign(40, 1000);
  const auto expect_empty = [&] {
    const inference::AggregatedSummary& agg = tier.aggregate_epoch();
    EXPECT_TRUE(agg.empty());
    EXPECT_EQ(agg.centroids.rows(), 0u);
    EXPECT_TRUE(agg.origin.empty());
    EXPECT_TRUE(agg.local_index.empty());
    EXPECT_TRUE(tier.infer_epoch(nullptr).empty());
  };

  tier.begin_epoch(1);
  ASSERT_TRUE(tier.add_summary(full));
  EXPECT_EQ(tier.aggregate_epoch().rows(), 40u);
  tier.begin_epoch(2);  // no summaries arrive
  expect_empty();

  tier.begin_epoch(1);
  ASSERT_TRUE(tier.add_summary(full));
  (void)tier.infer_epoch(nullptr);  // aggregates implicitly
  tier.begin_epoch(3);  // the tier is down: the summary is refused
  EXPECT_FALSE(tier.add_summary(full));
  expect_empty();

  tier.begin_epoch(4);
  ASSERT_TRUE(tier.add_summary(full));  // never aggregated...
  tier.begin_epoch(5);                   // ...so dropped here
  expect_empty();
}

// ------------------------------------------------- epoch-meta codec

TEST(EpochMetaCodec, SingleShardEncodingIsThePreShardingFormat) {
  store::EpochMeta m{7, 3.5, 1200, 0.75, 0.25};
  const auto bytes = store::encode_epoch_meta(m);
  EXPECT_EQ(bytes.size(), 32u);
  const auto back = store::decode_epoch_meta(7, bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->packets, 1200u);
  EXPECT_EQ(back->report_fraction, 0.75);
}

TEST(EpochMetaCodec, ShardCountIsIgnoredAndFortyBytesAreRefused) {
  store::EpochMeta m{9, 4.0, 800, 1.0, 0.0};
  m.shard_count = 4;
  const auto bytes = store::encode_epoch_meta(m);
  EXPECT_EQ(bytes, store::encode_epoch_meta({9, 4.0, 800, 1.0, 0.0}));
  // The 40-byte payload sharded builds wrote (a trailing shard count) and
  // other odd sizes are malformed.
  auto sharded = bytes;
  sharded.resize(40);
  sharded[32] = 4;
  EXPECT_FALSE(store::decode_epoch_meta(9, sharded).has_value());
  auto truncated = bytes;
  truncated.resize(28);
  EXPECT_FALSE(store::decode_epoch_meta(9, truncated).has_value());
}

// ---------------------------------------------------- deployment harness

struct ShardRun {
  std::vector<EpochResult> epochs;
  std::vector<std::string> alert_lines;       ///< Stored alert JSON.
  /// The live alerts' provenance JSON, in alert order (the store keeps
  /// none).
  std::vector<std::string> provenance_lines;
  /// Canonical rendering of every summary and EpochMeta record in the
  /// store log, with EpochMeta decoded.  Summary records render as
  /// "kind=<k> epoch=<e> ...".
  std::vector<std::string> summary_records;
  /// Raw kMetrics / kEvents records (kind/epoch/payload bytes, hex).
  std::vector<std::string> ops_records;
  std::string doctor_timeline;
  /// Deterministic span export (include_timings = false).
  std::string span_jsonl;
  /// JaalController::last_flight_dump() at the end of the run.
  std::string flight_dump;
  /// slo()->to_jsonl() at the end of the run; empty with SLO off.
  std::string slo_jsonl;
};

constexpr double kDuration = 0.3;

JaalConfig shard_config(std::size_t threads, const std::string& dir,
                        telemetry::Telemetry* tel) {
  JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 5;
  cfg.epoch_seconds = 0.04;
  cfg.threads = threads;
  // Strict/loose pair so case-3 feedback runs.
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = true;
  cfg.store_dir = dir;
  cfg.store_metrics = true;
  cfg.telemetry = tel;
  return cfg;
}

ShardRun run_sharded(std::size_t threads,
                     const faults::FaultScenario& scenario,
                     const std::string& dir,
                     const std::function<void(JaalConfig&)>& tweak = {}) {
  telemetry::Telemetry tel;
  JaalConfig cfg = shard_config(threads, dir, &tel);
  cfg.faults = scenario;
  if (tweak) tweak(cfg);

  ShardRun out;
  {
    JaalController controller(cfg, ruleset());
    trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
    attack::AttackConfig acfg;
    acfg.victim_ip = evaluation_victim_ip();
    acfg.start_time = 0.03;
    acfg.packets_per_second = 5000.0;
    acfg.seed = 3;
    attack::SynFlood flood(acfg);
    trace::TrafficMix mix(bg, {&flood}, 0.10);
    out.epochs = controller.run(mix, kDuration);
    EXPECT_FALSE(controller.store()->failed());
    for (const EpochResult& e : out.epochs) {
      for (const inference::Alert& a : e.alerts) {
        if (a.provenance) {
          out.provenance_lines.push_back(observe::to_json(*a.provenance));
        }
      }
    }
    out.flight_dump = controller.last_flight_dump();
    if (controller.slo() != nullptr) {
      out.slo_jsonl = controller.slo()->to_jsonl();
    }
  }
  out.span_jsonl = telemetry::to_jsonl({}, tel.tracer.records(),
                                       {.include_timings = false});

  store::DeploymentStore reader({dir, cfg.store_epochs_per_shard},
                                /*writable=*/false);
  reader.each_alert_line(
      [&](std::uint64_t, std::uint32_t, std::string_view line) {
        out.alert_lines.emplace_back(line);
        return true;
      });
  reader.log().for_each([&](const store::RecordView& rec) {
    std::ostringstream line;
    line.precision(17);
    switch (rec.kind) {
      case store::RecordKind::kEpochMeta: {
        const auto meta = store::decode_epoch_meta(rec.epoch, rec.payload);
        EXPECT_TRUE(meta.has_value());
        if (meta) {
          line << "meta epoch=" << meta->epoch << " end=" << meta->end_time
               << " packets=" << meta->packets
               << " rf=" << meta->report_fraction
               << " caution=" << meta->caution;
        }
        break;
      }
      case store::RecordKind::kSummary:
        line << "kind=" << static_cast<int>(rec.kind)
             << " epoch=" << rec.epoch << " stream=" << rec.stream
             << " bytes=";
        for (const std::uint8_t b : rec.payload) {
          line << std::hex << static_cast<int>(b) << std::dec;
        }
        break;
      default:
        return true;
    }
    out.summary_records.push_back(line.str());
    return true;
  });
  reader.log().for_each([&](const store::RecordView& rec) {
    if (rec.kind != store::RecordKind::kMetrics &&
        rec.kind != store::RecordKind::kEvents) {
      return true;
    }
    std::ostringstream line;
    line << "kind=" << static_cast<int>(rec.kind) << " epoch=" << rec.epoch
         << " bytes=";
    for (const std::uint8_t b : rec.payload) {
      line << std::hex << static_cast<int>(b) << std::dec;
    }
    out.ops_records.push_back(line.str());
    return true;
  });

  store::StoreDiagnosisConfig dcfg;
  dcfg.observe = cfg.observe;
  const store::StoreDiagnosis diag = store::diagnose_store(reader, dcfg);
  out.doctor_timeline = diag.timeline_jsonl;
  return out;
}

void expect_identical(const ShardRun& base, const ShardRun& got,
                      const std::string& what) {
  ASSERT_EQ(base.epochs.size(), got.epochs.size()) << what;
  std::size_t total_alerts = 0;
  for (std::size_t e = 0; e < base.epochs.size(); ++e) {
    const EpochResult& lhs = base.epochs[e];
    const EpochResult& rhs = got.epochs[e];
    EXPECT_EQ(lhs.end_time, rhs.end_time) << what << " epoch " << e;
    EXPECT_EQ(lhs.packets, rhs.packets) << what << " epoch " << e;
    EXPECT_EQ(lhs.monitors_reporting, rhs.monitors_reporting)
        << what << " epoch " << e;
    EXPECT_EQ(lhs.report_fraction, rhs.report_fraction)
        << what << " epoch " << e;
    ASSERT_EQ(lhs.alerts.size(), rhs.alerts.size()) << what << " epoch " << e;
    for (std::size_t a = 0; a < lhs.alerts.size(); ++a) {
      EXPECT_EQ(inference::alert_to_json(lhs.alerts[a], lhs.end_time),
                inference::alert_to_json(rhs.alerts[a], rhs.end_time))
          << what << " epoch " << e << " alert " << a;
    }
    total_alerts += lhs.alerts.size();
  }
  EXPECT_GT(total_alerts, 0u) << what << ": vacuously empty alert stream";
  EXPECT_EQ(base.alert_lines, got.alert_lines) << what;
  EXPECT_EQ(base.provenance_lines, got.provenance_lines) << what;
  EXPECT_EQ(base.summary_records, got.summary_records) << what;
  EXPECT_EQ(base.ops_records, got.ops_records) << what;
  EXPECT_EQ(base.doctor_timeline, got.doctor_timeline) << what;
}

// Clean run: byte-identical at every thread count.
TEST(ShardEquivalence, CleanRunByteIdenticalAcrossShardsAndThreads) {
  TempDir base_dir("clean_base");
  const ShardRun base = run_sharded(1, {}, base_dir.str());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    TempDir dir("clean_t" + std::to_string(threads));
    expect_identical(base, run_sharded(threads, {}, dir.str()),
                     "threads=" + std::to_string(threads));
  }
}

// Transport loss must not disturb the equivalence: the tier sees whatever
// the transport delivered, in the same order, at every thread count.
TEST(ShardEquivalence, DropFivePercentByteIdenticalAcrossShards) {
  faults::FaultScenario scenario;
  scenario.drop_rate = 0.15;
  scenario.seed = 77;

  TempDir base_dir("drop_base");
  const ShardRun base = run_sharded(1, scenario, base_dir.str());
  std::size_t dropped = 0;
  for (const EpochResult& e : base.epochs) dropped += e.summaries_dropped;
  EXPECT_GT(dropped, 0u) << "scenario never dropped anything";

  TempDir dir("drop_t2");
  expect_identical(base, run_sharded(2, scenario, dir.str()), "drop t=2");
}

// ------------------------------------------------------- tier outage

TEST(ShardEquivalence, ShardCrashDegradesInsteadOfCrashing) {
  faults::FaultScenario scenario;
  faults::ShardCrashWindow w;
  w.crash_epoch = 2;
  w.restart_epoch = 4;
  scenario.shard_crashes.push_back(w);

  TempDir dir("outage_t2");
  const ShardRun got = run_sharded(2, scenario, dir.str());

  std::size_t lost = 0;
  for (std::size_t e = 0; e < got.epochs.size(); ++e) {
    const EpochResult& r = got.epochs[e];
    lost += r.summaries_lost_shard;
    if (w.covers(e)) {
      // The tier refuses everything: nothing aggregates, nothing alerts,
      // and thresholds see the loss instead of the epoch crashing.
      EXPECT_EQ(r.monitors_reporting, 0u) << "epoch " << e;
      EXPECT_EQ(r.summaries_rolled_in, 0u) << "epoch " << e;
      EXPECT_GT(r.summaries_lost_shard, 0u) << "epoch " << e;
      EXPECT_TRUE(r.alerts.empty()) << "epoch " << e;
      EXPECT_LT(r.report_fraction, 1.0) << "epoch " << e;
      EXPECT_TRUE(r.degraded()) << "epoch " << e;
    } else {
      EXPECT_EQ(r.summaries_lost_shard, 0u) << "epoch " << e;
    }
  }
  EXPECT_GT(lost, 0u) << "outage window never refused a summary";

  // Refused summaries are not persisted: the window's epochs hold only
  // their commit records.
  for (const std::string& rec : got.summary_records) {
    for (std::uint64_t e = w.crash_epoch; e < w.restart_epoch; ++e) {
      EXPECT_EQ(rec.find(" epoch=" + std::to_string(e) + " stream="),
                std::string::npos)
          << rec;
    }
  }

  // The degraded run is still deterministic across thread counts.
  TempDir dir_serial("outage_t1");
  expect_identical(got, run_sharded(1, scenario, dir_serial.str()),
                   "tier outage threads=1");
}

// ------------------------------------------------------ store consumers

TEST(ShardEquivalence, ShardedStoreReplaysLikeSingleEngine) {
  // Replay equivalence is documented feedback-free, so run the live side
  // feedback-free too (store_config idiom from test_store.cpp).
  auto run_store = [&](const std::string& dir) {
    telemetry::Telemetry tel;
    JaalConfig cfg = shard_config(2, dir, &tel);
    cfg.engine.feedback_enabled = false;
    JaalController controller(cfg, ruleset());
    trace::BackgroundTraffic gen(trace::trace1_profile(), 11);
    return controller.run(gen, kDuration);
  };

  TempDir dir("replay");
  const auto live = run_store(dir.str());

  JaalConfig cfg = shard_config(1, dir.str(), nullptr);
  inference::InferenceEngine engine(ruleset(), cfg.engine);
  store::StoreReplayer replayer({dir.str(), cfg.store_epochs_per_shard});
  const auto replayed = replayer.replay(engine, cfg.engine.tau_c_scale);
  ASSERT_EQ(replayed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(replayed[i].alerts.size(), live[i].alerts.size())
        << "epoch " << i;
    for (std::size_t j = 0; j < live[i].alerts.size(); ++j) {
      EXPECT_EQ(inference::alert_to_json(replayed[i].alerts[j],
                                         replayed[i].end_time),
                inference::alert_to_json(live[i].alerts[j], live[i].end_time))
          << "epoch " << i << " alert " << j;
    }
  }
}

// ------------------------------------------------------ pinned bytes

/// FNV-1a 64 over the lines, each terminated by '\n', as 16 hex digits.
std::string digest(const std::vector<std::string>& lines) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::string& line : lines) {
    for (const char c : line + '\n') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string digest(const std::string& text) {
  return digest(std::vector<std::string>{text});
}

// The byte-identity tests above compare runs of one build with each other,
// so a change to the ops format that lands on both sides still passes
// them.  This one pins the bytes themselves: every operational artifact of
// a faulted run (flight recorder and SLO on, drops, late summaries rolled
// forward, a monitor crash and feedback retries) hashed
// against digests recorded from the reference implementation.  A
// deliberate format change re-records them.
TEST(ShardEquivalence, OpsStreamMatchesPinnedDigest) {
  faults::FaultScenario scenario;
  scenario.seed = 91;
  scenario.drop_rate = 0.05;
  scenario.delay_mean_s = 0.02;  // some summaries miss the epoch deadline
  scenario.crashes.push_back({/*monitor=*/2, /*crash_epoch=*/3,
                              /*restart_epoch=*/5});
  scenario.feedback_failure_rate = 0.1;

  TempDir dir("pinned");
  const ShardRun run =
      run_sharded(1, scenario, dir.str(), [](JaalConfig& c) {
        c.observe.flight_recorder = true;
        c.observe.slo = true;
        c.aggregation.late_policy = faults::LatePolicy::kRollForward;
      });

  std::size_t dropped = 0, late = 0, rolled = 0, crashed = 0;
  for (const EpochResult& e : run.epochs) {
    dropped += e.summaries_dropped;
    late += e.summaries_late;
    rolled += e.summaries_rolled_in;
    crashed += e.monitors_crashed;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(rolled, 0u);
  EXPECT_GT(crashed, 0u);
  // Every flight event kind but drift_end (no drift recovers in 8 epochs).
  for (const char* kind : {"epoch_close", "fidelity", "drift_start", "ship",
                           "feedback", "span", "profile"}) {
    EXPECT_NE(run.flight_dump.find(std::string("\"kind\":\"") + kind + '"'),
              std::string::npos)
        << "no " << kind << " event in the flight dump";
  }

  EXPECT_EQ(digest(run.ops_records), "af90467dd4568301");
  EXPECT_EQ(digest(run.doctor_timeline), "83c5698b404b9999");
  EXPECT_EQ(digest(run.span_jsonl), "551cc9fababf46ad");
  EXPECT_EQ(digest(run.alert_lines), "baa483928d8d1424");
  EXPECT_EQ(digest(run.provenance_lines), "fcd290bea8cc29c5");
  EXPECT_EQ(digest(run.flight_dump), "016506a6650d9fe8");
  EXPECT_EQ(digest(run.slo_jsonl), "86b595b31e9b295d");
}

}  // namespace
}  // namespace jaal::core
