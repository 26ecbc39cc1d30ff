// Crash-point enumeration over the store log.  A crash can stop the writer
// after any append of an epoch or inside any frame (the file then ends
// mid-frame).  For every such cut of the last epoch of a three-epoch store,
// a reader and a writer reopening it must agree on exactly the committed
// prefix: the commit horizon, every each_* walk and StoreReplayer's output.
// Writer recovery must leave the files byte-identical to a store that never
// wrote the cut epoch, and resuming from there must rewrite the full store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "inference/alert_json.hpp"
#include "store/flat_record.hpp"
#include "store/flat_timeshard.hpp"
#include "store/replay.hpp"
#include "store/store.hpp"

namespace jaal::store {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("jaal_store_crash_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

constexpr std::uint64_t kEpochs = 3;

std::vector<rules::Rule> ruleset() {
  return rules::parse_rules(rules::default_ruleset_text(),
                            core::evaluation_rule_vars());
}

/// One centroid on the first rule's question, `count` packets strong.
summarize::MonitorSummary question_hit(const std::vector<rules::Rule>& rules,
                                       std::uint32_t monitor,
                                       std::uint64_t count) {
  summarize::CombinedSummary hit;
  hit.monitor = monitor;
  hit.centroids = linalg::Matrix(1, packet::kFieldCount);
  const rules::Question q = rules::translate(rules.front());
  for (std::size_t j = 0; j < packet::kFieldCount; ++j) {
    hit.centroids(0, j) = q.q[j] == rules::kWildcard ? 0.0 : q.q[j];
  }
  hit.counts = {count};
  return hit;
}

/// Appends epochs [from, to) in the live controller's order: summaries,
/// alerts, the flight events, the metrics delta, then the commit record.
void write_epochs(const std::string& dir, std::uint64_t width,
                  std::uint64_t from, std::uint64_t to,
                  const std::vector<rules::Rule>& rules) {
  DeploymentStore store({dir, width}, /*writable=*/true);
  ASSERT_EQ(store.last_committed_epoch(),
            from == 0 ? std::nullopt : std::optional<std::uint64_t>{from - 1});
  for (std::uint64_t e = from; e < to; ++e) {
    const double end = 2.0 * static_cast<double>(e + 1);
    for (std::uint32_t m = 0; m < 3; ++m) {
      store.put_summary(e, question_hit(rules, m, 400 + 50 * e + 20 * m));
    }
    for (std::uint32_t i = 0; i < 2; ++i) {
      inference::Alert a;
      a.sid = 100 + i;
      a.msg = "crash point";
      a.matched_packets = 10 * e + i;
      store.put_alert(e, a, end);
    }
    std::vector<observe::FlightEvent> events(2);
    events[0].seq = 2 * e;
    events[0].epoch = e;
    events[0].kind = observe::FlightEventKind::kFidelity;
    events[0].a = 0.999;
    events[1].seq = 2 * e + 1;
    events[1].epoch = e;
    events[1].kind = observe::FlightEventKind::kEpochClose;
    store.put_events(e, events);
    telemetry::MetricsSnapshot delta;
    delta.entries.emplace_back();
    delta.entries.back().name = "jaal_packets_observed_total";
    delta.entries.back().kind = telemetry::MetricKind::kCounter;
    delta.entries.back().counter = 1000 + e;
    store.put_metrics(e, delta);
    store.commit_epoch({e, end, 2000, 1.0, 0.0});
  }
  ASSERT_FALSE(store.failed());
}

/// What a store shows through its walks and a replay.
struct Contents {
  std::optional<std::uint64_t> horizon;
  std::size_t summaries = 0, metas = 0, alerts = 0, metrics = 0,
              events = 0;
  std::vector<std::string> replay;  ///< One line per epoch, then its alerts.
  bool operator==(const Contents&) const = default;
};

void PrintTo(const Contents& c, std::ostream* os) {
  *os << "horizon=" << (c.horizon ? std::to_string(*c.horizon) : "none")
      << " summaries=" << c.summaries << " metas=" << c.metas
      << " alerts=" << c.alerts << " metrics=" << c.metrics
      << " events=" << c.events << " replay lines=" << c.replay.size();
}

Contents walks_of(const DeploymentStore& store) {
  Contents c;
  c.horizon = store.last_committed_epoch();
  store.each_summary([&](std::uint64_t, std::uint32_t,
                         const summarize::MonitorSummary&) {
    return ++c.summaries, true;
  });
  store.each_epoch_meta([&](const EpochMeta&) { return ++c.metas, true; });
  store.each_alert_line([&](std::uint64_t, std::uint32_t, std::string_view) {
    return ++c.alerts, true;
  });
  store.each_metrics_delta(
      [&](std::uint64_t, const telemetry::MetricsSnapshot&) {
        return ++c.metrics, true;
      });
  store.each_flight_events(
      [&](std::uint64_t, const std::vector<observe::FlightEvent>&) {
        return ++c.events, true;
      });
  return c;
}

std::vector<std::string> replay_of(const std::string& dir,
                                   std::uint64_t width,
                                   inference::InferenceEngine& engine) {
  std::vector<std::string> lines;
  for (const ReplayEpoch& e : StoreReplayer({dir, width}).replay(engine)) {
    lines.push_back("epoch=" + std::to_string(e.epoch) +
                    " summaries=" + std::to_string(e.summaries));
    for (const inference::Alert& a : e.alerts) {
      lines.push_back(inference::alert_to_json(a, e.end_time));
    }
  }
  return lines;
}

/// Reader walks plus the replay of a store nobody has recovered.
Contents read_store(const std::string& dir, std::uint64_t width,
                    inference::InferenceEngine& engine) {
  Contents c = walks_of(DeploymentStore({dir, width}, /*writable=*/false));
  c.replay = replay_of(dir, width, engine);
  return c;
}

std::map<std::string, std::string> files_of(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = {
        std::istreambuf_iterator<char>(in), {}};
  }
  return files;
}

TEST(StoreCrashPoints, EveryCutOfTheLastEpochRecoversTheCommittedPrefix) {
  const auto rules = ruleset();
  inference::InferenceEngine engine(rules, inference::EngineConfig{});
  // 64: all epochs share one shard.  1: the last epoch opens its own.
  for (const std::uint64_t width : {std::uint64_t{64}, std::uint64_t{1}}) {
    SCOPED_TRACE(testing::Message() << "epochs_per_shard " << width);
    TempDir full("full_" + std::to_string(width));
    TempDir prefix("prefix_" + std::to_string(width));
    write_epochs(full.str(), width, 0, kEpochs, rules);
    write_epochs(prefix.str(), width, 0, kEpochs - 1, rules);
    const Contents want_full = read_store(full.str(), width, engine);
    const Contents want_prefix = read_store(prefix.str(), width, engine);
    ASSERT_EQ(want_full.horizon, std::optional<std::uint64_t>{kEpochs - 1});
    ASSERT_EQ(want_prefix.horizon, std::optional<std::uint64_t>{kEpochs - 2});
    ASSERT_EQ(want_full.alerts, 2 * kEpochs);
    ASSERT_EQ(want_full.metrics, kEpochs);
    ASSERT_GT(want_prefix.replay.size(), kEpochs - 1)
        << "replay raised no alert";
    const auto full_files = files_of(full.path);
    const auto prefix_files = files_of(prefix.path);

    // The last epoch's frames in the shard holding it.
    const std::string shard_name =
        fs::path(TimeShardLog({full.str(), "summaries", width},
                              /*writable=*/false)
                     .shard_paths()
                     .back())
            .filename()
            .string();
    const std::string& shard = full_files.at(shard_name);
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(shard.data()), shard.size());
    std::vector<std::size_t> cuts;
    if (width == 1) cuts = {0, 4};  // the roll's header never landed
    std::size_t offset = kShardHeaderBytes;
    std::size_t frames = 0;
    while (true) {
      const std::size_t start = offset;
      const auto rec = next_record(bytes, offset);
      if (rec && rec->epoch != kEpochs - 1) continue;
      cuts.push_back(start);  // a crash after an append
      if (!rec) break;
      ++frames;
      cuts.push_back(start + kRecordHeaderBytes / 2);  // inside the header
      cuts.push_back(offset - 1);                      // inside the payload
    }
    ASSERT_EQ(frames, 8u);
    ASSERT_EQ(cuts.back(), shard.size());

    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(testing::Message() << "cut at byte " << cut);
      const bool whole = cut == shard.size();
      const Contents& want = whole ? want_full : want_prefix;
      TempDir trial("trial");
      fs::copy(full.path, trial.path, fs::copy_options::recursive);
      fs::resize_file(trial.path / shard_name, cut);

      EXPECT_EQ(read_store(trial.str(), width, engine), want);
      {
        DeploymentStore writer({trial.str(), width}, /*writable=*/true);
        Contents got = walks_of(writer);
        got.replay = want.replay;
        EXPECT_EQ(got, want);
        EXPECT_FALSE(writer.failed());
      }
      EXPECT_EQ(files_of(trial.path), whole ? full_files : prefix_files);
      EXPECT_EQ(read_store(trial.str(), width, engine), want);
      if (!whole) {
        write_epochs(trial.str(), width, kEpochs - 1, kEpochs, rules);
        EXPECT_EQ(files_of(trial.path), full_files);
      }
    }
  }
}

}  // namespace
}  // namespace jaal::store
