// src/store: record framing, time-sharded logs, the deployment store's
// commit protocol, and retroactive replay.  Crash scenarios are simulated
// the only honest way available to a unit test: by corrupting / truncating
// the shard files directly and re-opening.
#include "store/store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "inference/alert_json.hpp"
#include "store/flat_record.hpp"
#include "store/flat_timeshard.hpp"
#include "store/replay.hpp"
#include "trace/background.hpp"

namespace jaal::store {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("jaal_store_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------- framing

TEST(FlatRecord, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value for "123456789".
  const auto check = bytes_of("123456789");
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(FlatRecord, HeaderRoundTripsLittleEndian) {
  RecordHeader h;
  h.payload_len = 0x01020304u;
  h.crc32 = 0xA1B2C3D4u;
  h.epoch = 0x1122334455667788ull;
  h.stream = 7;
  h.kind = static_cast<std::uint32_t>(RecordKind::kEpochMeta);
  std::uint8_t buf[kRecordHeaderBytes];
  encode_record_header(h, buf);
  // Explicit little-endian: first byte of the length is the low byte.
  EXPECT_EQ(buf[0], 0x04);
  const RecordHeader d = decode_record_header(buf);
  EXPECT_EQ(d.payload_len, h.payload_len);
  EXPECT_EQ(d.crc32, h.crc32);
  EXPECT_EQ(d.epoch, h.epoch);
  EXPECT_EQ(d.stream, h.stream);
  EXPECT_EQ(d.kind, h.kind);
}

std::vector<std::uint8_t> frame(std::uint64_t epoch, std::uint32_t stream,
                                RecordKind kind,
                                std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(kRecordHeaderBytes + payload.size());
  RecordHeader h;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.crc32 = crc32(payload);
  h.epoch = epoch;
  h.stream = stream;
  h.kind = static_cast<std::uint32_t>(kind);
  encode_record_header(h, out.data());
  std::copy(payload.begin(), payload.end(),
            out.begin() + kRecordHeaderBytes);
  return out;
}

TEST(FlatRecord, NextRecordWalksValidFramesAndStopsAtCorruption) {
  const auto p1 = bytes_of("hello");
  const auto p2 = bytes_of("world!");
  auto shard = frame(3, 1, RecordKind::kAlert, p1);
  const auto f2 = frame(4, 2, RecordKind::kProvenance, p2);
  shard.insert(shard.end(), f2.begin(), f2.end());

  std::size_t off = 0;
  auto r1 = next_record(shard, off);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->epoch, 3u);
  EXPECT_EQ(r1->stream, 1u);
  EXPECT_EQ(r1->kind, RecordKind::kAlert);
  ASSERT_EQ(r1->payload.size(), p1.size());
  auto r2 = next_record(shard, off);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->epoch, 4u);
  EXPECT_FALSE(next_record(shard, off).has_value());  // end of data
  EXPECT_EQ(off, shard.size());

  // A flipped payload bit fails the CRC: the walk stops there.
  auto corrupted = shard;
  corrupted[kRecordHeaderBytes] ^= 0x01;
  std::size_t coff = 0;
  EXPECT_FALSE(next_record(corrupted, coff).has_value());
  EXPECT_EQ(coff, 0u);

  // An all-zero header is pre-allocated space, not a record.
  std::vector<std::uint8_t> zeros(kRecordHeaderBytes * 2, 0);
  std::size_t zoff = 0;
  EXPECT_FALSE(next_record(zeros, zoff).has_value());

  // Unknown kinds and implausible lengths are the torn tail too.
  auto badkind = shard;
  badkind[20] = 99;  // kind field, low byte
  std::size_t koff = 0;
  EXPECT_FALSE(next_record(badkind, koff).has_value());
  auto badlen = frame(1, 0, RecordKind::kSummary, p1);
  badlen[3] = 0xFF;  // length high byte -> way past kMaxRecordPayload
  std::size_t loff = 0;
  EXPECT_FALSE(next_record(badlen, loff).has_value());

  // A header that promises more payload than the shard holds is torn.
  auto truncated = frame(1, 0, RecordKind::kSummary, p1);
  truncated.resize(truncated.size() - 2);
  std::size_t toff = 0;
  EXPECT_FALSE(next_record(truncated, toff).has_value());
}

// ----------------------------------------------------------- timeshard log

TEST(TimeShard, AppendsAndReadsBackInOrder) {
  TempDir dir("append");
  TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
  for (std::uint64_t e = 0; e < 10; ++e) {
    const auto payload = bytes_of("payload " + std::to_string(e));
    ASSERT_TRUE(log.append(e, static_cast<std::uint32_t>(e % 3),
                           RecordKind::kAlert, payload));
  }
  EXPECT_EQ(log.records_appended(), 10u);
  EXPECT_EQ(log.last_epoch(), std::optional<std::uint64_t>{9});

  std::uint64_t expect = 0;
  log.for_each([&](const RecordView& r) {
    EXPECT_EQ(r.epoch, expect);
    EXPECT_EQ(std::string(r.payload.begin(), r.payload.end()),
              "payload " + std::to_string(expect));
    ++expect;
    return true;
  });
  EXPECT_EQ(expect, 10u);
}

TEST(TimeShard, RollsShardsAndFinalizesThemTight) {
  TempDir dir("roll");
  const auto payload = bytes_of("x");
  {
    TimeShardLog log({dir.str(), "t", 4}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 10; ++e) {
      ASSERT_TRUE(log.append(e, 0, RecordKind::kAlert, payload));
    }
    const auto paths = log.shard_paths();
    ASSERT_EQ(paths.size(), 3u);  // epochs [0,4), [4,8), [8,10)
    // A rolled (finalized) shard is truncated to header + its exact data.
    EXPECT_EQ(fs::file_size(paths[0]),
              kShardHeaderBytes + 4 * (kRecordHeaderBytes + payload.size()));
  }
  // Reader sees all ten records across the three shards.
  TimeShardLog reader({dir.str(), "t", 4}, /*writable=*/false);
  std::size_t n = 0;
  reader.for_each([&](const RecordView&) { return ++n, true; });
  EXPECT_EQ(n, 10u);
}

TEST(TimeShard, EpochOrderingIsEnforced) {
  TempDir dir("order");
  TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
  const auto payload = bytes_of("x");
  ASSERT_TRUE(log.append(5, 0, RecordKind::kAlert, payload));
  EXPECT_FALSE(log.append(3, 0, RecordKind::kAlert, payload));
  EXPECT_TRUE(log.failed());
}

TEST(TimeShard, TornTailIsTruncatedOnWriterOpen) {
  TempDir dir("torn");
  const auto payload = bytes_of("record payload");
  std::string tail_path;
  {
    TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 5; ++e) {
      ASSERT_TRUE(log.append(e, 0, RecordKind::kAlert, payload));
    }
    tail_path = log.shard_paths().back();
  }
  // Simulate an interrupted append: garbage where the next frame would go.
  const auto clean_size = fs::file_size(tail_path);
  {
    std::ofstream f(tail_path, std::ios::binary | std::ios::app);
    f << "garbage bytes from a torn write";
  }
  ASSERT_GT(fs::file_size(tail_path), clean_size);

  TimeShardLog reopened({dir.str(), "t", 64}, /*writable=*/true);
  EXPECT_GT(reopened.torn_bytes_truncated(), 0u);
  EXPECT_EQ(fs::file_size(tail_path), clean_size);
  EXPECT_EQ(reopened.last_epoch(), std::optional<std::uint64_t>{4});
  std::size_t n = 0;
  reopened.for_each([&](const RecordView&) { return ++n, true; });
  EXPECT_EQ(n, 5u);
}

TEST(TimeShard, HeaderTornTailShardIsDeletedOnWriterOpen) {
  TempDir dir("headertorn");
  // A crash during roll can leave a tail shard with a half-written header.
  const fs::path stub = dir.path / "t.000001.jstore";
  {
    std::ofstream f(stub, std::ios::binary);
    f << "JST";  // not even a full magic
  }
  TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
  EXPECT_GT(log.torn_bytes_truncated(), 0u);
  EXPECT_FALSE(fs::exists(stub));
  // The recovered log accepts appends again.
  const auto payload = bytes_of("x");
  EXPECT_TRUE(log.append(0, 0, RecordKind::kAlert, payload));
}

TEST(TimeShard, IncompatibleFormatVersionIsRefused) {
  TempDir dir("version");
  {
    TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
    const auto payload = bytes_of("x");
    ASSERT_TRUE(log.append(0, 0, RecordKind::kAlert, payload));
  }
  const fs::path shard = dir.path / "t.000000.jstore";
  {
    // Bump the format version field ([8,12) in the header) to a future one.
    std::fstream f(shard, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const char future[4] = {99, 0, 0, 0};
    f.write(future, 4);
  }
  EXPECT_THROW(TimeShardLog({dir.str(), "t", 64}, /*writable=*/true),
               std::invalid_argument);
}

TEST(TimeShard, ChangedShardWidthIsRefusedNotWiped) {
  TempDir dir("width");
  const auto payload = bytes_of("precious committed data");
  {
    TimeShardLog log({dir.str(), "t", 4}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 10; ++e) {
      ASSERT_TRUE(log.append(e, 0, RecordKind::kAlert, payload));
    }
  }
  // Reopening with a different epochs_per_shard makes every header fail
  // validation.  That must refuse the store (writer and reader alike) —
  // never be mistaken for a torn roll and deleted shard by shard.
  EXPECT_THROW(TimeShardLog({dir.str(), "t", 8}, /*writable=*/true),
               std::invalid_argument);
  EXPECT_THROW(TimeShardLog({dir.str(), "t", 8}, /*writable=*/false),
               std::invalid_argument);
  // All ten records survive a reopen with the original config.
  TimeShardLog log({dir.str(), "t", 4}, /*writable=*/true);
  std::size_t n = 0;
  log.for_each([&](const RecordView&) { return ++n, true; });
  EXPECT_EQ(n, 10u);
}

TEST(TimeShard, TornBytesCountOnlyGarbageNotPreallocatedCapacity) {
  TempDir dir("tornbytes");
  const auto payload = bytes_of("record payload");
  std::string tail_path;
  {
    TimeShardLog log({dir.str(), "t", 64}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 3; ++e) {
      ASSERT_TRUE(log.append(e, 0, RecordKind::kAlert, payload));
    }
    tail_path = log.shard_paths().back();
  }
  const auto clean_size = fs::file_size(tail_path);
  const std::vector<char> zeros(1 << 20, 0);
  {
    // Crash mid-append: two bytes of a torn frame, then the zeroed
    // pre-allocated capacity the doubling growth policy left behind.
    std::ofstream f(tail_path, std::ios::binary | std::ios::app);
    f << "XY";
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  {
    TimeShardLog reopened({dir.str(), "t", 64}, /*writable=*/true);
    EXPECT_EQ(reopened.torn_bytes_truncated(), 2u);
  }
  EXPECT_EQ(fs::file_size(tail_path), clean_size);
  {
    // Pure pre-allocated capacity (all zeros past the data) is not torn.
    std::ofstream f(tail_path, std::ios::binary | std::ios::app);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  TimeShardLog reopened({dir.str(), "t", 64}, /*writable=*/true);
  EXPECT_EQ(reopened.torn_bytes_truncated(), 0u);
  EXPECT_EQ(fs::file_size(tail_path), clean_size);
}

TEST(TimeShard, TruncateAfterEpochCutsShardsAndRecords) {
  TempDir dir("truncate");
  TimeShardLog log({dir.str(), "t", 4}, /*writable=*/true);
  const auto payload = bytes_of("x");
  for (std::uint64_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(log.append(e, 0, RecordKind::kAlert, payload));
  }
  ASSERT_EQ(log.shard_paths().size(), 3u);
  ASSERT_TRUE(log.truncate_after_epoch(5));
  EXPECT_EQ(log.last_epoch(), std::optional<std::uint64_t>{5});
  EXPECT_EQ(log.shard_paths().size(), 2u);  // the [8,10) shard is gone
  // Appending resumes from the cut.
  ASSERT_TRUE(log.append(6, 0, RecordKind::kAlert, payload));
  std::vector<std::uint64_t> epochs;
  log.for_each([&](const RecordView& r) {
    epochs.push_back(r.epoch);
    return true;
  });
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));

  ASSERT_TRUE(log.truncate_after_epoch(std::nullopt));
  EXPECT_FALSE(log.last_epoch().has_value());
}

// ------------------------------------------------------- deployment store

TEST(Store, EpochMetaRoundTrips) {
  const EpochMeta m{42, 84.5, 123456, 0.75, 0.25};
  const auto payload = encode_epoch_meta(m);
  const auto d = decode_epoch_meta(42, payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->epoch, 42u);
  EXPECT_EQ(d->end_time, 84.5);
  EXPECT_EQ(d->packets, 123456u);
  EXPECT_EQ(d->report_fraction, 0.75);
  EXPECT_EQ(d->caution, 0.25);
  EXPECT_FALSE(decode_epoch_meta(42, std::span<const std::uint8_t>(
                                         payload.data(), 7))
                   .has_value());
}

summarize::MonitorSummary sample_summary(std::uint32_t monitor) {
  summarize::CombinedSummary c;
  c.monitor = monitor;
  c.centroids = linalg::Matrix{{0.25, 1.0 / 3.0}, {0.5, 0.1}};
  c.counts = {11, 22};
  return c;
}

TEST(Store, UncommittedEpochIsDroppedOnReopen) {
  TempDir dir("commit");
  {
    DeploymentStore store({dir.str(), 64}, /*writable=*/true);
    EXPECT_FALSE(store.last_committed_epoch().has_value());
    store.put_summary(0, sample_summary(1));
    store.commit_epoch({0, 2.0, 1000, 1.0, 0.0});
    // Epoch 1's summary lands but the process "dies" before the commit.
    store.put_summary(1, sample_summary(2));
    EXPECT_EQ(store.last_committed_epoch(), std::optional<std::uint64_t>{0});
  }
  DeploymentStore reopened({dir.str(), 64}, /*writable=*/true);
  EXPECT_EQ(reopened.last_committed_epoch(),
            std::optional<std::uint64_t>{0});
  std::size_t summaries = 0;
  reopened.each_summary([&](std::uint64_t epoch, std::uint32_t monitor,
                            const summarize::MonitorSummary& s) {
    EXPECT_EQ(epoch, 0u);
    EXPECT_EQ(monitor, 1u);
    // Full-fidelity storage: scalars come back bit-identical.
    const auto& c = std::get<summarize::CombinedSummary>(s);
    EXPECT_EQ(c.centroids(0, 1), 1.0 / 3.0);
    ++summaries;
    return true;
  });
  EXPECT_EQ(summaries, 1u);  // the uncommitted epoch-1 summary is gone
}

TEST(Store, ReaderSurfacesOnlyCommittedPrefix) {
  TempDir dir("readerprefix");
  inference::Alert a;
  a.sid = 7;
  a.msg = "m";
  {
    DeploymentStore store({dir.str(), 64}, /*writable=*/true);
    store.put_summary(0, sample_summary(1));
    store.put_alert(0, a, 2.0);
    store.commit_epoch({0, 2.0, 100, 1.0, 0.0});
    // Epoch 1 is half-written: records land, the commit never does.
    store.put_summary(1, sample_summary(2));
    store.put_alert(1, a, 4.0);
  }
  // A read-only open must observe the same committed prefix a writer
  // open's recovery would keep — never the half-written epoch.
  DeploymentStore reader({dir.str(), 64}, /*writable=*/false);
  EXPECT_EQ(reader.last_committed_epoch(), std::optional<std::uint64_t>{0});
  std::size_t summaries = 0, alerts = 0;
  reader.each_summary([&](std::uint64_t epoch, std::uint32_t,
                          const summarize::MonitorSummary&) {
    EXPECT_EQ(epoch, 0u);
    ++summaries;
    return true;
  });
  reader.each_alert_line(
      [&](std::uint64_t epoch, std::uint32_t, std::string_view) {
        EXPECT_EQ(epoch, 0u);
        ++alerts;
        return true;
      });
  EXPECT_EQ(summaries, 1u);
  EXPECT_EQ(alerts, 1u);
}

TEST(Store, ReplayDropsEpochWithMalformedMeta) {
  TempDir dir("badmeta");
  {
    // Craft the summaries log by hand: epoch 1's commit record is
    // CRC-valid but malformed (wrong payload size), so it cannot be
    // replayed — and its summaries must not leak into epoch 2's aggregate.
    TimeShardLog log({dir.str(), "summaries", 64}, /*writable=*/true);
    const auto put_summary = [&](std::uint64_t e, std::uint32_t mon) {
      const auto bytes = summarize::serialize(
          sample_summary(mon), summarize::WirePrecision::kFloat64);
      ASSERT_TRUE(log.append(e, mon, RecordKind::kSummary, bytes));
    };
    put_summary(0, 1);
    ASSERT_TRUE(log.append(0, 0, RecordKind::kEpochMeta,
                           encode_epoch_meta({0, 2.0, 100, 1.0, 0.0})));
    put_summary(1, 2);
    const std::vector<std::uint8_t> malformed(16, 0xAB);
    ASSERT_TRUE(log.append(1, 0, RecordKind::kEpochMeta, malformed));
    put_summary(2, 3);
    ASSERT_TRUE(log.append(2, 0, RecordKind::kEpochMeta,
                           encode_epoch_meta({2, 6.0, 100, 1.0, 0.0})));
  }
  inference::InferenceEngine engine(
      rules::parse_rules(rules::default_ruleset_text(),
                         core::evaluation_rule_vars()),
      inference::EngineConfig{});
  const StoreReplayer replayer({dir.str(), 64});
  const auto replayed = replayer.replay(engine, 1.0);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].epoch, 0u);
  EXPECT_EQ(replayed[0].summaries, 1u);
  EXPECT_EQ(replayed[1].epoch, 2u);
  // Without the discard, epoch 1's orphaned summary would inflate this.
  EXPECT_EQ(replayed[1].summaries, 1u);
}

TEST(Store, AlertAndProvenanceLinesRoundTrip) {
  TempDir dir("lines");
  inference::Alert a;
  a.sid = 1234;
  a.msg = "test alert \"quoted\"";
  a.matched_packets = 99;
  a.variance = 0.125;
  const std::string line = inference::alert_to_json(a, 6.0);
  {
    DeploymentStore store({dir.str(), 64}, /*writable=*/true);
    store.put_alert(3, a, 6.0);
    store.commit_epoch({3, 6.0, 500, 1.0, 0.0});
  }
  DeploymentStore reader({dir.str(), 64}, /*writable=*/false);
  std::size_t lines = 0;
  reader.each_alert_line(
      [&](std::uint64_t epoch, std::uint32_t sid, std::string_view got) {
        EXPECT_EQ(epoch, 3u);
        EXPECT_EQ(sid, 1234u);
        EXPECT_EQ(got, line);
        ++lines;
        return true;
      });
  EXPECT_EQ(lines, 1u);
}

// ------------------------------------------------ live pipeline + replay

core::JaalConfig store_config(const std::string& dir) {
  core::JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 3;
  cfg.epoch_seconds = 0.04;
  cfg.engine.default_thresholds = {0.02, 0.02};
  cfg.engine.tau_c_scale = 1.8;
  // Replay has no raw packets, so compare against a feedback-free live run
  // (the documented equivalence).
  cfg.engine.feedback_enabled = false;
  cfg.store_dir = dir;
  return cfg;
}

std::vector<rules::Rule> ruleset() {
  return rules::parse_rules(rules::default_ruleset_text(),
                            core::evaluation_rule_vars());
}

TEST(Store, ReplayReproducesLiveAlertsByteForByte) {
  TempDir dir("replay");
  const core::JaalConfig cfg = store_config(dir.str());
  std::vector<core::EpochResult> live;
  {
    core::JaalController controller(cfg, ruleset());
    trace::BackgroundTraffic gen(trace::trace1_profile(), 11);
    live = controller.run(gen, 0.3);
    ASSERT_FALSE(controller.store()->failed());
  }
  ASSERT_GE(live.size(), 5u);

  inference::InferenceEngine engine(ruleset(), cfg.engine);
  StoreReplayer replayer({dir.str(), cfg.store_epochs_per_shard});
  const auto replayed = replayer.replay(engine, cfg.engine.tau_c_scale);
  ASSERT_EQ(replayed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replayed[i].end_time, live[i].end_time);
    EXPECT_EQ(replayed[i].packets, live[i].packets);
    ASSERT_EQ(replayed[i].alerts.size(), live[i].alerts.size())
        << "epoch " << i;
    for (std::size_t j = 0; j < live[i].alerts.size(); ++j) {
      EXPECT_EQ(inference::alert_to_json(replayed[i].alerts[j],
                                         replayed[i].end_time),
                inference::alert_to_json(live[i].alerts[j],
                                         live[i].end_time))
          << "epoch " << i << " alert " << j;
    }
  }
}

TEST(Store, StoredAlertLinesMatchTheLiveEncoder) {
  TempDir dir("storedlines");
  const core::JaalConfig cfg = store_config(dir.str());
  std::vector<std::string> expected;
  {
    core::JaalController controller(cfg, ruleset());
    trace::BackgroundTraffic gen(trace::trace1_profile(), 12);
    for (const auto& epoch : controller.run(gen, 0.3)) {
      for (const auto& a : epoch.alerts) {
        expected.push_back(inference::alert_to_json(a, epoch.end_time));
      }
    }
  }
  DeploymentStore reader({dir.str(), cfg.store_epochs_per_shard},
                         /*writable=*/false);
  std::vector<std::string> stored;
  reader.each_alert_line(
      [&](std::uint64_t, std::uint32_t, std::string_view line) {
        stored.emplace_back(line);
        return true;
      });
  EXPECT_EQ(stored, expected);
}

#ifndef JAAL_TELEMETRY_DISABLED
TEST(Store, StoreTelemetryCountsAppends) {
  TempDir dir("telemetry");
  telemetry::Telemetry tel;
  core::JaalConfig cfg = store_config(dir.str());
  cfg.telemetry = &tel;
  core::JaalController controller(cfg, ruleset());
  trace::BackgroundTraffic gen(trace::trace1_profile(), 13);
  (void)controller.run(gen, 0.2);
  bool saw_records = false, saw_bytes = false;
  for (const auto& e : tel.metrics.snapshot().entries) {
    if (e.name == "jaal_store_records_total" && e.counter > 0) {
      saw_records = true;
    }
    if (e.name == "jaal_store_bytes_written_total" && e.counter > 0) {
      saw_bytes = true;
    }
  }
  EXPECT_TRUE(saw_records);
  EXPECT_TRUE(saw_bytes);
}
#endif  // JAAL_TELEMETRY_DISABLED

}  // namespace
}  // namespace jaal::store
