// src/store: record framing, time-sharded logs, the deployment store's
// commit protocol, and retroactive replay.  Crash scenarios are simulated
// the only honest way available to a unit test: by corrupting / truncating
// the shard files directly and re-opening.
#include "store/store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "inference/alert_json.hpp"
#include "linalg/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "simd_levels.hpp"
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

/// Bitwise CRC-32 straight from the polynomial: the reference every
/// dispatched body must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

using test::available_levels;
using test::ForcedLevel;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(FlatRecord, Crc32LevelsAgree) {
  // The table body (scalar) and the carry-less-multiply fold (vector
  // levels on pclmul hosts) must both be the IEEE CRC: every length across
  // the fold's 64-byte entry and 16-byte tail boundaries, at every
  // alignment, and one buffer the size of a stored epoch.
  const auto check = bytes_of("123456789");
  const auto small = random_bytes(1100 + 16, 7);
  const auto big = random_bytes(670 * 1024, 8);
  const std::uint32_t big_ref = crc32_bitwise(big);
  std::vector<std::uint32_t> refs;
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      refs.push_back(crc32_bitwise({small.data() + start, len}));
    }
  }
  for (const linalg::simd::Level level : available_levels()) {
    const ForcedLevel pin(level);
    SCOPED_TRACE(std::string(linalg::simd::level_name(level)));
    EXPECT_EQ(crc32(check), 0xCBF43926u);
    EXPECT_EQ(crc32({}), 0x00000000u);
    std::size_t mismatches = 0;
    std::size_t i = 0;
    for (std::size_t start = 0; start < 16; ++start) {
      for (std::size_t len = 0; len <= 1100; ++len, ++i) {
        mismatches += crc32({small.data() + start, len}) != refs[i] ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(crc32(big), big_ref);
  }
  // A record framed at one level validates at every other.
  const auto payload = random_bytes(1000, 9);
  for (const linalg::simd::Level writer : available_levels()) {
    std::vector<std::uint8_t> shard;
    {
      const ForcedLevel pin(writer);
      shard = frame(5, 2, RecordKind::kSummary, payload);
    }
    for (const linalg::simd::Level reader : available_levels()) {
      const ForcedLevel pin(reader);
      std::size_t offset = 0;
      const auto rec = next_record(shard, offset);
      ASSERT_TRUE(rec.has_value());
      EXPECT_EQ(offset, shard.size());
      EXPECT_TRUE(std::equal(rec->payload.begin(), rec->payload.end(),
                             payload.begin(), payload.end()));
    }
  }
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

/// Every record of `epoch` through the point query, as "<stream>:<payload>".
std::vector<std::string> point_query(const TimeShardLog& log,
                                     std::uint64_t epoch) {
  std::vector<std::string> out;
  log.for_each_in_epoch(epoch, [&](const RecordView& r) {
    EXPECT_EQ(r.epoch, epoch);
    out.push_back(std::to_string(r.stream) + ':' +
                  std::string(r.payload.begin(), r.payload.end()));
    return true;
  });
  return out;
}

/// The same records through a whole-log walk filtered to `epoch`.
std::vector<std::string> filtered_walk(const TimeShardLog& log,
                                       std::uint64_t epoch) {
  std::vector<std::string> out;
  log.for_each([&](const RecordView& r) {
    if (r.epoch == epoch) {
      out.push_back(std::to_string(r.stream) + ':' +
                    std::string(r.payload.begin(), r.payload.end()));
    }
    return true;
  });
  return out;
}

TEST(TimeShard, PointQueryMatchesFilteredWalk) {
  TempDir dir("pointquery");
  const TimeShardConfig cfg{dir.str(), "t", 8};
  constexpr std::uint64_t kEpochs = 10;  // shard 0 = [0, 8), shard 1 = [8, 10)
  const auto append_epochs = [](TimeShardLog& log, std::uint64_t from) {
    // 0-3 records per epoch; epochs 2 and 5 are empty.
    for (std::uint64_t e = from; e < kEpochs; ++e) {
      const std::uint64_t n = (e == 2 || e == 5) ? 0 : 1 + (e + 1) % 3;
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string text = "e";  // "e<epoch>r<index>"
        text += std::to_string(e) + 'r' + std::to_string(i);
        ASSERT_TRUE(log.append(e, i, RecordKind::kAlert, bytes_of(text)));
      }
    }
  };
  // Every epoch of both shards and past the end (10-15 inside shard 1, 16+
  // in a shard that does not exist); returns the point-query answers.
  const auto check = [](const TimeShardLog& log, const std::string& what) {
    std::vector<std::vector<std::string>> answers;
    for (std::uint64_t e = 0; e < 2 * kEpochs; ++e) {
      answers.push_back(point_query(log, e));
      EXPECT_EQ(answers.back(), filtered_walk(log, e)) << what << " epoch "
                                                       << e;
    }
    return answers;
  };

  std::vector<std::vector<std::string>> reference;
  {
    TimeShardLog writer(cfg, /*writable=*/true);
    append_epochs(writer, 0);
    ASSERT_EQ(writer.shard_paths().size(), 2u);
    reference = check(writer, "writer tail");
    ASSERT_EQ(reference[4].size(), 3u);
    ASSERT_TRUE(reference[2].empty());
    ASSERT_TRUE(reference[kEpochs].empty());

    ASSERT_TRUE(writer.truncate_after_epoch(8));  // cut inside shard 1
    const auto cut8 = check(writer, "after truncate_after_epoch(8)");
    EXPECT_EQ(cut8[8], reference[8]);
    EXPECT_TRUE(cut8[9].empty());
    ASSERT_TRUE(writer.truncate_after_epoch(3));  // shard 1 gone, 0 cut
    const auto cut3 = check(writer, "after truncate_after_epoch(3)");
    EXPECT_EQ(cut3[3], reference[3]);
    EXPECT_TRUE(cut3[4].empty());
    append_epochs(writer, 4);
    EXPECT_EQ(check(writer, "re-appended tail"), reference);
  }
  EXPECT_EQ(check(TimeShardLog(cfg, /*writable=*/false), "reader"),
            reference);

  // Torn tail: garbage after the last frame of shard 1.
  const fs::path tail = dir.path / "t.000001.jstore";
  {
    std::ofstream f(tail, std::ios::binary | std::ios::app);
    f << "garbage bytes from a torn write";
  }
  EXPECT_EQ(check(TimeShardLog(cfg, /*writable=*/false), "torn reader"),
            reference);
  {
    TimeShardLog recovered(cfg, /*writable=*/true);
    ASSERT_GT(recovered.torn_bytes_truncated(), 0u);
    EXPECT_EQ(check(recovered, "recovered writer"), reference);
  }

  // A leftover `.jidx` file from an older build is ignored.
  {
    std::ofstream f(dir.path / "t.000000.jidx", std::ios::binary);
    f << "JIDX1" << std::string(3, '\0') << "not an index at all";
  }
  EXPECT_EQ(check(TimeShardLog(cfg, /*writable=*/false), "stray .jidx"),
            reference);
  {
    TimeShardLog writer(cfg, /*writable=*/true);
    EXPECT_EQ(check(writer, "writer beside stray .jidx"), reference);
  }

  // A point query walks only its own shard, up to the first record past
  // its epoch.
  telemetry::Telemetry tel;
  const TimeShardLog reader(cfg, /*writable=*/false, &tel);
  const auto scanned = [&] {
    for (const auto& e : tel.metrics.snapshot().entries) {
      if (e.name == "jaal_store_scan_bytes_total") return e.counter;
    }
    return std::uint64_t{0};
  };
  (void)point_query(reader, 8);  // "e8r0", then "e9r0" ends the walk
  EXPECT_EQ(scanned(), 2 * (kRecordHeaderBytes + 4));
  (void)point_query(reader, 9);
  EXPECT_EQ(scanned(), 2 * (kRecordHeaderBytes + 4) +
                           fs::file_size(tail) - kShardHeaderBytes);
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
    // Stored as shipped: scalars come back float32-rounded.
    const auto& c = std::get<summarize::CombinedSummary>(s);
    EXPECT_EQ(c.centroids(0, 1), static_cast<double>(1.0f / 3.0f));
    ++summaries;
    return true;
  });
  EXPECT_EQ(summaries, 1u);  // the uncommitted epoch-1 summary is gone
}

TEST(Store, SummaryRecordIsTheShippedBytes) {
  // One encoding from monitor to disk: a stored summary record is
  // summarize::serialize(s) (version 1, float32) whichever put_summary
  // form wrote it.
  const summarize::MonitorSummary s = sample_summary(4);
  const std::vector<std::uint8_t> shipped = summarize::serialize(s);
  ASSERT_EQ(shipped[1], summarize::kWireVersion);
  ASSERT_EQ(summarize::kWireVersion, 1u);
  TempDir dir("shipped");
  {
    DeploymentStore store({dir.str(), 64}, /*writable=*/true);
    store.put_summary(0, s);
    store.put_summary(0, 4, shipped);
    store.commit_epoch({0, 2.0, 1000, 1.0, 0.0});
  }
  const DeploymentStore reader({dir.str(), 64}, /*writable=*/false);
  std::size_t records = 0;
  reader.summaries_log().for_each([&](const RecordView& rec) {
    if (rec.kind != RecordKind::kSummary) return true;
    ++records;
    EXPECT_EQ(rec.stream, 4u);
    EXPECT_TRUE(std::equal(rec.payload.begin(), rec.payload.end(),
                           shipped.begin(), shipped.end()));
    return true;
  });
  EXPECT_EQ(records, 2u);
}

/// What a full walk of the summaries log says: the last EpochMeta's epoch,
/// and each shard's valid record bytes (what a walk of it scans).
struct FullWalk {
  std::optional<std::uint64_t> horizon;
  std::map<std::uint64_t, std::uint64_t> shard_bytes;
};

FullWalk full_walk(const std::string& dir, std::uint64_t epochs_per_shard) {
  FullWalk out;
  const TimeShardLog log({dir, "summaries", epochs_per_shard},
                         /*writable=*/false);
  log.for_each([&](const RecordView& rec) {
    if (rec.kind == RecordKind::kEpochMeta) out.horizon = rec.epoch;
    out.shard_bytes[rec.epoch / epochs_per_shard] +=
        kRecordHeaderBytes + rec.payload.size();
    return true;
  });
  return out;
}

/// The horizon a reader open finds, with the bytes its open scanned.
std::pair<std::optional<std::uint64_t>, std::uint64_t> open_reader(
    const std::string& dir, std::uint64_t epochs_per_shard) {
  telemetry::Telemetry tel;
  const DeploymentStore reader({dir, epochs_per_shard}, /*writable=*/false,
                               &tel);
  std::uint64_t scanned = 0;
  for (const auto& e : tel.metrics.snapshot().entries) {
    if (e.name == "jaal_store_scan_bytes_total") scanned = e.counter;
  }
  return {reader.last_committed_epoch(), scanned};
}

TEST(Store, OpenWalksShardsNewestFirstToTheHorizon) {
  constexpr std::uint64_t kWidth = 2;  // epochs per shard
  // Epochs 0..4 committed: summaries shards 0 {0,1}, 1 {2,3}, 2 {4}.
  const auto write_committed = [](const std::string& dir) {
    DeploymentStore store({dir, kWidth}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 5; ++e) {
      store.put_summary(e, sample_summary(1));
      store.put_summary(e, sample_summary(2));
      store.commit_epoch({e, 2.0 * static_cast<double>(e + 1), 100, 1.0, 0.0});
    }
  };
  const auto shard_file = [](const TempDir& dir, int index) {
    char name[40];
    std::snprintf(name, sizeof(name), "summaries.%06d.jstore", index);
    return (dir.path / name).string();
  };

  // 1. A multi-shard store: the newest shard holds the horizon, so the
  //    open walks it alone.
  TempDir multi("open_multi");
  write_committed(multi.str());
  FullWalk full = full_walk(multi.str(), kWidth);
  ASSERT_EQ(full.shard_bytes.size(), 3u);
  auto [horizon, scanned] = open_reader(multi.str(), kWidth);
  EXPECT_EQ(horizon, full.horizon);
  EXPECT_EQ(horizon, std::optional<std::uint64_t>{4});
  EXPECT_EQ(scanned, full.shard_bytes[2]);

  // 2. The last shard holds only an uncommitted epoch (the process died
  //    before its EpochMeta): the open walks it, then the shard before.
  TempDir uncommitted("open_uncommitted");
  write_committed(uncommitted.str());
  {
    DeploymentStore store({uncommitted.str(), kWidth}, /*writable=*/true);
    store.put_summary(6, sample_summary(1));
  }
  ASSERT_TRUE(fs::exists(shard_file(uncommitted, 3)));
  full = full_walk(uncommitted.str(), kWidth);
  std::tie(horizon, scanned) = open_reader(uncommitted.str(), kWidth);
  EXPECT_EQ(horizon, full.horizon);
  EXPECT_EQ(horizon, std::optional<std::uint64_t>{4});
  EXPECT_EQ(scanned, full.shard_bytes[3] + full.shard_bytes[2]);

  // 3. A torn tail that cuts the newest EpochMeta: epoch 4's summaries
  //    stay valid, its commit does not, so the horizon falls back into
  //    shard 1 and the open walks both.
  TempDir torn("open_torn");
  write_committed(torn.str());
  const std::string tail = shard_file(torn, 2);
  fs::resize_file(tail, fs::file_size(tail) - 3);
  full = full_walk(torn.str(), kWidth);
  std::tie(horizon, scanned) = open_reader(torn.str(), kWidth);
  EXPECT_EQ(horizon, full.horizon);
  EXPECT_EQ(horizon, std::optional<std::uint64_t>{3});
  EXPECT_EQ(scanned, full.shard_bytes[2] + full.shard_bytes[1]);
  EXPECT_LT(scanned, full.shard_bytes[2] + full.shard_bytes[1] +
                         full.shard_bytes[0]);
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
      const auto bytes = summarize::serialize(sample_summary(mon));
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

/// One centroid sitting exactly on the first rule's question, `count`
/// packets strong: at the nominal volume, 1000 fires that rule.
summarize::CombinedSummary question_hit(const std::vector<rules::Rule>& rules,
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

TEST(Store, ReplayReadsNonFiniteMetaAsDocumented) {
  // The meta decoder accepts any bits, so a CRC-valid commit record may
  // carry a NaN report fraction or caution, or a packet count so large the
  // scaled count threshold leaves uint64_t.  Replay must turn those into
  // the engine's documented values, not an undefined conversion.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto ruleset = rules::parse_rules(rules::default_ruleset_text(),
                                          core::evaluation_rule_vars());
  // One centroid sitting exactly on the first rule's question, heavy
  // enough to fire it at the nominal volume.
  const summarize::CombinedSummary hit = question_hit(ruleset, 1, 1000);

  TempDir dir("nanmeta");
  {
    TimeShardLog log({dir.str(), "summaries", 64}, /*writable=*/true);
    const auto bytes = summarize::serialize(summarize::MonitorSummary{hit});
    const EpochMeta metas[] = {{0, 2.0, 2000, kNaN, kNaN},
                               {1, 4.0, 2000, 1.0, 0.0},
                               {2, 6.0, kMax, 1.0, 0.0}};
    for (const EpochMeta& m : metas) {
      ASSERT_TRUE(log.append(m.epoch, 1, RecordKind::kSummary, bytes));
      ASSERT_TRUE(log.append(m.epoch, 0, RecordKind::kEpochMeta,
                             encode_epoch_meta(m)));
    }
  }
  const StoreReplayer replayer({dir.str(), 64});

  // NaN fraction reads as 1.0 and NaN caution as 0.0: epoch 0 decides
  // exactly like the clean epoch 1.
  inference::InferenceEngine engine(ruleset, inference::EngineConfig{});
  const auto replayed = replayer.replay(engine, 1.0);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_TRUE(std::isnan(replayed[0].report_fraction));  // as stored
  ASSERT_FALSE(replayed[1].alerts.empty());
  ASSERT_EQ(replayed[0].alerts.size(), replayed[1].alerts.size());
  for (std::size_t i = 0; i < replayed[0].alerts.size(); ++i) {
    const inference::Alert& a = replayed[0].alerts[i];
    EXPECT_EQ(a.sid, replayed[1].alerts[i].sid);
    EXPECT_EQ(a.matched_packets, replayed[1].alerts[i].matched_packets);
    EXPECT_EQ(a.confidence, 1.0);
    EXPECT_EQ(a.caution, 0.0);
  }

  // A packet count past any sensible volume: under a large configured
  // scale the threshold saturates and no rule can fire.
  inference::InferenceEngine scaled(ruleset, inference::EngineConfig{});
  const auto saturated = replayer.replay(scaled, 1e6);
  ASSERT_EQ(saturated.size(), 3u);
  EXPECT_TRUE(saturated[2].alerts.empty());
  for (const rules::Question& question : scaled.questions()) {
    EXPECT_EQ(scaled.scaled_tau_c(question), kMax);  // epoch 2's knobs
  }
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

/// Every alert of a replayed epoch as its stored JSON line.
std::vector<std::string> alert_lines(const ReplayEpoch& e) {
  std::vector<std::string> lines;
  for (const inference::Alert& a : e.alerts) {
    lines.push_back(inference::alert_to_json(a, e.end_time));
  }
  return lines;
}

TEST(Store, ReplayDropsSummariesOfALostCommitRecord) {
  // Two epochs per shard, so epoch 1's commit record ends shard 0.  One
  // flipped payload byte fails its CRC: the walk of shard 0 stops there,
  // and epoch 1's summaries have no commit.  They must not be aggregated
  // into epoch 2, the first epoch of shard 1.
  const auto rules = ruleset();
  const auto write = [&](const std::string& dir, bool with_epoch_1) {
    TimeShardLog log({dir, "summaries", 2}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 4; ++e) {
      if (e == 1 && !with_epoch_1) continue;
      for (std::uint32_t m = 0; m < 2; ++m) {
        const auto bytes = summarize::serialize(
            summarize::MonitorSummary{question_hit(rules, m, 700 + 100 * e)});
        ASSERT_TRUE(log.append(e, m, RecordKind::kSummary, bytes));
      }
      const double end = 2.0 * static_cast<double>(e + 1);
      ASSERT_TRUE(log.append(e, 0, RecordKind::kEpochMeta,
                             encode_epoch_meta({e, end, 2000, 1.0, 0.0})));
    }
  };
  TempDir damaged("lostmeta");
  TempDir clean("lostmeta_ref");
  write(damaged.str(), true);
  write(clean.str(), false);
  {
    const fs::path shard0 = damaged.path / "summaries.000000.jstore";
    std::vector<std::uint8_t> bytes(fs::file_size(shard0));
    std::fstream f(shard0, std::ios::in | std::ios::out | std::ios::binary);
    f.read(reinterpret_cast<char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
    std::optional<std::size_t> at;
    std::size_t offset = kShardHeaderBytes;
    while (const auto rec = next_record(bytes, offset)) {
      if (rec->kind == RecordKind::kEpochMeta && rec->epoch == 1) {
        at = static_cast<std::size_t>(rec->payload.data() - bytes.data());
      }
    }
    ASSERT_TRUE(at.has_value());
    f.seekp(static_cast<std::streamoff>(*at));
    f.put(static_cast<char>(bytes[*at] ^ 0x5A));
  }
  inference::InferenceEngine engine(rules, inference::EngineConfig{});
  const auto got = StoreReplayer({damaged.str(), 2}).replay(engine, 1.0);
  const auto want = StoreReplayer({clean.str(), 2}).replay(engine, 1.0);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(got[1].epoch, 2u);
  EXPECT_EQ(got[1].summaries, 2u);
  EXPECT_EQ(got[1].summaries, want[1].summaries);
  EXPECT_FALSE(want[1].alerts.empty());
  EXPECT_EQ(alert_lines(got[1]), alert_lines(want[1]));
}

TEST(Store, ReplayEndsAShardAtARecordClaimingAnotherShardsEpoch) {
  // One epoch per shard.  Epoch 0's commit record fails its CRC, so shard 0
  // ends in uncommitted summaries, and the header of the last of them (the
  // epoch stamp is outside the CRC) is damaged to claim epoch 1, the first
  // epoch of shard 1.  The walk must end shard 0 at that record: were it
  // handed out, its payload view would be held past shard 0's unmap and
  // read when epoch 1 commits.  Epochs 1 and 2 replay as if epoch 0 had
  // never been stored.
  const auto rules = ruleset();
  const auto write = [&](const std::string& dir, bool with_epoch_0) {
    TimeShardLog log({dir, "summaries", 1}, /*writable=*/true);
    for (std::uint64_t e = 0; e < 3; ++e) {
      if (e == 0 && !with_epoch_0) continue;
      for (std::uint32_t m = 0; m < 2; ++m) {
        const auto bytes = summarize::serialize(
            summarize::MonitorSummary{question_hit(rules, m, 700 + 100 * e)});
        ASSERT_TRUE(log.append(e, m, RecordKind::kSummary, bytes));
      }
      const double end = 2.0 * static_cast<double>(e + 1);
      ASSERT_TRUE(log.append(e, 0, RecordKind::kEpochMeta,
                             encode_epoch_meta({e, end, 2000, 1.0, 0.0})));
    }
  };
  TempDir damaged("foreign_epoch");
  TempDir clean("foreign_epoch_ref");
  write(damaged.str(), true);
  write(clean.str(), false);
  {
    const fs::path shard0 = damaged.path / "summaries.000000.jstore";
    std::vector<std::uint8_t> bytes(fs::file_size(shard0));
    {
      std::ifstream in(shard0, std::ios::binary);
      in.read(reinterpret_cast<char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    }
    std::vector<std::size_t> starts;
    std::size_t offset = kShardHeaderBytes;
    while (next_record(bytes, offset)) starts.push_back(offset);
    ASSERT_EQ(starts.size(), 3u);  // two summaries, then the commit record
    const std::size_t meta_payload = starts[1] + kRecordHeaderBytes;
    bytes[meta_payload] ^= 0x5A;
    RecordHeader h = decode_record_header(bytes.data() + starts[0]);
    ASSERT_EQ(h.epoch, 0u);
    h.epoch = 1;
    encode_record_header(h, bytes.data() + starts[0]);
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  inference::InferenceEngine engine(rules, inference::EngineConfig{});
  const auto got = StoreReplayer({damaged.str(), 1}).replay(engine, 1.0);
  const auto want = StoreReplayer({clean.str(), 1}).replay(engine, 1.0);
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(want.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].epoch, want[i].epoch);
    EXPECT_EQ(got[i].summaries, 2u);
    EXPECT_EQ(got[i].summaries, want[i].summaries);
    EXPECT_EQ(alert_lines(got[i]), alert_lines(want[i]));
  }
  EXPECT_FALSE(want[0].alerts.empty());
  // Shard 0 ends before the damaged record; the other shards are whole.
  TimeShardLog log({damaged.str(), "summaries", 1}, /*writable=*/false);
  std::vector<std::uint64_t> seen;
  log.for_each([&](const RecordView& rec) {
    seen.push_back(rec.epoch);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 1, 1, 2, 2, 2}));
}

/// Random split summary over the header fields; some U~ cells are zero
/// (the reconstruction's skip).
summarize::SplitSummary random_split(std::uint32_t monitor, std::size_t k,
                                     std::size_t r, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-0.5, 0.5);
  summarize::SplitSummary s;
  s.monitor = monitor;
  s.u_centroids = linalg::Matrix(k, r);
  for (double& v : s.u_centroids.data()) v = rng() % 5 == 0 ? 0.0 : u(rng);
  for (std::size_t c = 0; c < r; ++c) s.sigma.push_back(1.0 + u(rng));
  s.vt = linalg::Matrix(r, packet::kFieldCount);
  for (double& v : s.vt.data()) v = u(rng);
  for (std::size_t i = 0; i < k; ++i) s.counts.push_back(1 + rng() % 300);
  return s;
}

TEST(Store, PooledReplayMatchesSerial) {
  // Split and combined summaries over shard widths that put 1, 2 and all
  // epochs in a shard; epoch 3's commit record is malformed.  Replay must
  // not depend on the engine's pool.
  const auto rules = ruleset();
  std::mt19937_64 rng(21);
  std::vector<std::vector<std::vector<std::uint8_t>>> epochs(6);
  for (std::uint64_t e = 0; e < epochs.size(); ++e) {
    const summarize::MonitorSummary summaries[] = {
        question_hit(rules, 0, 400 + 150 * e), random_split(1, 40, 6, rng),
        random_split(2, 25, 12, rng), question_hit(rules, 3, 300),
        random_split(4, 60, 12, rng), random_split(5, 30, 4, rng)};
    for (const summarize::MonitorSummary& s : summaries) {
      epochs[e].push_back(summarize::serialize(s));
    }
  }
  std::optional<std::vector<ReplayEpoch>> reference;
  for (const std::uint64_t width : {64u, 2u, 1u}) {
    TempDir dir("pooled_" + std::to_string(width));
    {
      TimeShardLog log({dir.str(), "summaries", width}, /*writable=*/true);
      for (std::uint64_t e = 0; e < epochs.size(); ++e) {
        for (std::uint32_t m = 0; m < epochs[e].size(); ++m) {
          ASSERT_TRUE(log.append(e, m, RecordKind::kSummary, epochs[e][m]));
        }
        const auto meta =
            e == 3 ? std::vector<std::uint8_t>(16, 0xAB)
                   : encode_epoch_meta({e, 2.0 * static_cast<double>(e + 1),
                                        1500 + 200 * e, 0.75, 0.125});
        ASSERT_TRUE(log.append(e, 0, RecordKind::kEpochMeta, meta));
      }
    }
    const StoreReplayer replayer({dir.str(), width});
    for (const std::size_t threads : {0u, 1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << "epochs_per_shard " << width << ", pool " << threads);
      inference::InferenceEngine engine(rules, inference::EngineConfig{});
      if (threads > 0) {
        engine.set_pool(std::make_shared<runtime::ThreadPool>(threads));
      }
      const auto got = replayer.replay(engine, 1.3);
      if (!reference) {
        ASSERT_EQ(got.size(), 5u);
        std::size_t alerts = 0;
        for (const ReplayEpoch& e : got) alerts += e.alerts.size();
        EXPECT_GT(alerts, 0u);
        reference = got;
        continue;
      }
      ASSERT_EQ(got.size(), reference->size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const ReplayEpoch& a = got[i];
        const ReplayEpoch& b = (*reference)[i];
        EXPECT_EQ(a.epoch, b.epoch);
        EXPECT_EQ(std::memcmp(&a.end_time, &b.end_time, sizeof(double)), 0);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(std::memcmp(&a.report_fraction, &b.report_fraction,
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&a.caution, &b.caution, sizeof(double)), 0);
        EXPECT_EQ(a.shard_count, b.shard_count);
        EXPECT_EQ(a.summaries, b.summaries);
        EXPECT_EQ(alert_lines(a), alert_lines(b)) << "epoch " << a.epoch;
      }
    }
  }
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

}  // namespace
}  // namespace jaal::store
