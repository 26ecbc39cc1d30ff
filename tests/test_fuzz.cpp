// Robustness tests: every parser/decoder must reject arbitrary input with
// an exception (or a clean nullopt/skip), never crash, hang, or read out of
// bounds.  Deterministic pseudo-random fuzzing — cheap, repeatable, and run
// on every ctest invocation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>

#include "packet/wire.hpp"
#include "proto/messages.hpp"
#include "rules/rule.hpp"
#include "store/flat_record.hpp"
#include "store/flat_timeshard.hpp"
#include "store/metrics_codec.hpp"
#include "store/store.hpp"
#include "summarize/summary.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/background.hpp"
#include "trace/pcap.hpp"

namespace jaal {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Fuzz, WireParserNeverCrashes) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, rng() % 80);
    // parse_headers returns nullopt or a result; must never throw/crash.
    (void)packet::parse_headers(bytes);
  }
}

TEST(Fuzz, WireParserOnMutatedValidPacket) {
  packet::PacketRecord pkt;
  pkt.ip.src_ip = packet::make_ip(1, 2, 3, 4);
  pkt.ip.dst_ip = packet::make_ip(5, 6, 7, 8);
  pkt.tcp.set(packet::TcpFlag::kSyn);
  const auto valid = packet::serialize_headers(pkt.ip, pkt.tcp);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    const std::size_t flips = 1 + rng() % 6;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    (void)packet::parse_headers(mutated);
  }
}

TEST(Fuzz, SummaryDeserializerThrowsCleanly) {
  std::mt19937_64 rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 200);
    try {
      (void)summarize::deserialize(bytes);
    } catch (const std::runtime_error&) {
      // expected for garbage
    }
  }
}

TEST(Fuzz, SummaryDeserializerOnMutatedValidBuffer) {
  summarize::CombinedSummary s;
  s.monitor = 1;
  s.centroids = linalg::Matrix(4, 6);
  s.counts = {1, 2, 3, 4};
  const auto valid = summarize::serialize(summarize::MonitorSummary{s});
  std::mt19937_64 rng(4);
  for (int i = 0; i < 1000; ++i) {
    auto mutated = valid;
    mutated[rng() % mutated.size()] ^= static_cast<std::uint8_t>(rng() | 1);
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    try {
      (void)summarize::deserialize(mutated);
    } catch (const std::exception&) {
      // clean rejection is fine; crashing is not
    }
  }
}

TEST(Fuzz, ProtoDecoderThrowsCleanly) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 150);
    try {
      (void)proto::decode(bytes);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, FrameReaderSurvivesGarbageAfterValidFrames) {
  std::mt19937_64 rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    proto::FrameReader reader;
    reader.feed(proto::encode(proto::Message{proto::LoadUpdate{1, 1.0, 1}}));
    EXPECT_TRUE(reader.next().has_value());
    reader.feed(random_bytes(rng, 20));
    try {
      while (reader.next().has_value()) {
      }
    } catch (const std::runtime_error&) {
      // a reset-worthy stream error is the correct outcome for garbage
    }
  }
}

TEST(Fuzz, RuleParserThrowsNotCrashes) {
  std::mt19937_64 rng(7);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 ()[]:;!,.->\"$/";
  rules::RuleVars vars;
  vars.home_net = rules::AddrSpec::cidr(packet::make_ip(203, 0, 0, 0), 16);
  for (int i = 0; i < 2000; ++i) {
    std::string line;
    const std::size_t len = rng() % 120;
    for (std::size_t c = 0; c < len; ++c) {
      line.push_back(alphabet[rng() % alphabet.size()]);
    }
    try {
      (void)rules::parse_rule(line, vars);
    } catch (const std::exception&) {
      // invalid_argument / out_of_range from stoul etc. — all acceptable
    }
  }
}

TEST(Fuzz, RuleParserOnMutatedValidRules) {
  rules::RuleVars vars;
  vars.home_net = rules::AddrSpec::cidr(packet::make_ip(203, 0, 0, 0), 16);
  const std::string valid =
      "alert tcp $EXTERNAL_NET any -> $HOME_NET [22,80,8000:8080] "
      "(msg:\"x\"; flags:S; detection_filter: track by_src, count 5, "
      "seconds 60; jaal_variance: tcp.dst_port, 0.004; sid:19559; rev:5;)";
  std::mt19937_64 rng(8);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng() % 4;
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0: mutated[pos] = static_cast<char>(' ' + rng() % 94); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, static_cast<char>(' ' + rng() % 94));
      }
      if (mutated.empty()) mutated.push_back('x');
    }
    try {
      (void)rules::parse_rule(mutated, vars);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, PcapReaderThrowsCleanly) {
  std::mt19937_64 rng(9);
  for (int i = 0; i < 300; ++i) {
    const auto bytes = random_bytes(rng, rng() % 400);
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    try {
      (void)trace::read_pcap(stream);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, PcapReaderOnTruncatedValidFile) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), 10);
  const auto packets = trace::take(gen, 20);
  std::stringstream buffer;
  trace::write_pcap(buffer, packets);
  const std::string full = buffer.str();
  for (std::size_t cut = 0; cut < full.size(); cut += 7) {
    std::stringstream truncated(full.substr(0, cut));
    try {
      (void)trace::read_pcap(truncated);
    } catch (const std::exception&) {
    }
  }
}

// ------------------------------------------------- on-disk store decoders

/// Flips 1-6 random bits of `bytes`; returns whether the magic or version
/// byte (bytes 0 and 1) changed.
bool flip_bits(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng) {
  const auto before = bytes;
  for (std::size_t f = 1 + rng() % 6; f > 0; --f) {
    bytes[rng() % bytes.size()] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));
  }
  return bytes[0] != before[0] || bytes[1] != before[1];
}

/// For the magic+version varint payloads: every strict prefix of `valid`
/// is refused (each field is needed); bit flips, sometimes followed by
/// truncation, never crash, and are refused when they hit the header.
template <class Decode>
void expect_payload_refuses_damage(const std::vector<std::uint8_t>& valid,
                                   Decode decode, std::uint64_t seed) {
  ASSERT_TRUE(decode(valid).has_value());
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(decode({valid.data(), cut}).has_value()) << "cut=" << cut;
  }
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 3000; ++i) {
    auto mutated = valid;
    const bool header_hit = flip_bits(mutated, rng);
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    try {
      const bool decoded = decode(mutated).has_value();
      if (header_hit) {
        EXPECT_FALSE(decoded);
      }
    } catch (const std::exception&) {
      // a clean rejection is fine; crashing is not
    }
  }
}

TEST(Fuzz, MetricsDeltaDecoderOnMutatedValidPayload) {
  using telemetry::MetricKind;
  telemetry::MetricsSnapshot s;
  s.entries.push_back(
      {.name = "jaal_packets_observed_total", .counter = 1234, .histogram = {}});
  s.entries.push_back({.name = "jaal_epoch_current",
                       .kind = MetricKind::kGauge,
                       .gauge = -9,
                       .histogram = {}});
  std::vector<std::uint64_t> buckets(telemetry::Histogram::kBucketCount, 0);
  buckets[3] = 2;
  buckets[7] = 3;
  s.entries.push_back({.name = "jaal_batch_packets",
                       .kind = MetricKind::kHistogram,
                       .histogram = {5, 2.5, 1.5, buckets}});
  expect_payload_refuses_damage(store::encode_metrics_delta(s),
                                &store::decode_metrics_delta, 12);
}

TEST(Fuzz, FlightEventsDecoderOnMutatedValidPayload) {
  using observe::FlightEventKind;
  const std::vector<observe::FlightEvent> events = {
      {.seq = 10, .epoch = 4, .kind = FlightEventKind::kFidelity, .a = 0.999},
      {.seq = 11, .epoch = 4, .kind = FlightEventKind::kShip, .actor = 3},
      {.seq = 12, .kind = FlightEventKind::kEpochClose, .u = {0, 0, 1u << 20}},
  };
  expect_payload_refuses_damage(store::encode_flight_events(events),
                                &store::decode_flight_events, 13);
}

TEST(Fuzz, EpochMetaDecoderOnMutatedValidPayload) {
  const auto valid = store::encode_epoch_meta({7, 3.5, 4000, 0.75, 0.25, 4});
  ASSERT_EQ(valid.size(), 40u);
  // Strict prefixes are refused, except that the first 32 bytes are by
  // design a complete single-engine (shard_count 1) payload.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_EQ(store::decode_epoch_meta(7, {valid.data(), cut}).has_value(),
              cut == 32)
        << "cut=" << cut;
  }
  // The fields are fixed-width and take any bit pattern, so a flipped
  // payload decodes unless its shard-count word became zero.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    (void)flip_bits(mutated, rng);
    const bool zero_shards = std::all_of(mutated.begin() + 32, mutated.end(),
                                         [](std::uint8_t b) { return b == 0; });
    EXPECT_EQ(store::decode_epoch_meta(7, mutated).has_value(), !zero_shards);
  }
}

TEST(Fuzz, RecordHeaderDecodesAnyBytesLosslessly) {
  // Five fixed-width integers: every 24-byte pattern decodes and re-encodes
  // to itself (validating a frame is next_record's job, below).
  std::mt19937_64 rng(14);
  for (int i = 0; i < 1000; ++i) {
    const auto bytes = random_bytes(rng, store::kRecordHeaderBytes);
    std::vector<std::uint8_t> back(store::kRecordHeaderBytes);
    store::encode_record_header(store::decode_record_header(bytes.data()),
                                back.data());
    EXPECT_EQ(back, bytes);
  }
}

/// Walks every frame next_record accepts, checking that each payload view
/// stays inside the buffer.  Returns (records accepted, final offset).
std::pair<std::size_t, std::size_t> walk(std::span<const std::uint8_t> shard) {
  std::size_t offset = 0;
  std::size_t records = 0;
  while (const auto rec = store::next_record(shard, offset)) {
    EXPECT_GE(rec->payload.data(), shard.data());
    EXPECT_LE(rec->payload.data() + rec->payload.size(),
              shard.data() + shard.size());
    if (++records > shard.size() / store::kRecordHeaderBytes) {
      ADD_FAILURE() << "accepted more frames than fit in the buffer";
      break;
    }
  }
  EXPECT_LE(offset, shard.size());
  return {records, offset};
}

TEST(Fuzz, RecordFrameWalkStopsAtCorruption) {
  std::mt19937_64 rng(15);
  std::vector<std::uint8_t> shard;
  std::vector<std::size_t> ends;  // offset just past each record
  for (const std::size_t len : {5, 40, 1, 64}) {
    const auto payload = random_bytes(rng, len);
    const store::RecordHeader h{static_cast<std::uint32_t>(len),
                                store::crc32(payload), 2, 5,
                                1 + static_cast<std::uint32_t>(ends.size())};
    const std::size_t at = shard.size();
    shard.resize(at + store::kRecordHeaderBytes);
    store::encode_record_header(h, shard.data() + at);
    shard.insert(shard.end(), payload.begin(), payload.end());
    ends.push_back(shard.size());
  }
  ASSERT_EQ(walk(shard), std::make_pair(ends.size(), shard.size()));

  // Truncation: exactly the records wholly before the cut survive, and the
  // walk stops at the end of the last of them (the torn tail).
  for (std::size_t cut = 0; cut < shard.size(); ++cut) {
    const auto kept = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    EXPECT_EQ(walk({shard.data(), cut}),
              std::make_pair(kept, kept == 0 ? 0 : ends[kept - 1]))
        << "cut=" << cut;
  }

  for (int i = 0; i < 2000; ++i) {
    // Up to three flipped bits in one payload: CRC-32 detects every error
    // of that weight, so the walk stops right before that record.
    const std::size_t victim = rng() % ends.size();
    const std::size_t tail = victim == 0 ? 0 : ends[victim - 1];
    const std::size_t begin = tail + store::kRecordHeaderBytes;
    std::set<std::size_t> bits;
    for (std::size_t f = 1 + rng() % 3; bits.size() < f;) {
      bits.insert(rng() % ((ends[victim] - begin) * 8));
    }
    auto mutated = shard;
    for (const std::size_t bit : bits) {
      mutated[begin + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(walk(mutated), std::make_pair(victim, tail));

    // Flips anywhere (headers included), maybe truncated: the walk stays in
    // bounds and terminates, whatever it accepts.
    mutated = shard;
    (void)flip_bits(mutated, rng);
    if (rng() % 4 == 0) mutated.resize(rng() % (mutated.size() + 1));
    (void)walk(mutated);
  }
}

// ------------------------------------------------------ epoch-index sidecar

/// Every record of `epoch` through the point query, as "<stream>:<payload>".
std::vector<std::string> epoch_records(const store::TimeShardLog& log,
                                       std::uint64_t epoch) {
  std::vector<std::string> out;
  log.for_each_in_epoch(epoch, [&](const store::RecordView& rec) {
    EXPECT_EQ(rec.epoch, epoch);
    out.push_back(std::to_string(rec.stream) + ':' +
                  std::string(rec.payload.begin(), rec.payload.end()));
    return true;
  });
  return out;
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at,
            std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Re-signs a sidecar: its last four bytes become the CRC-32 of the rest.
void recompute_crc(std::vector<std::uint8_t>& bytes) {
  const std::size_t body = bytes.size() - 4;
  put_le(bytes, body, store::crc32({bytes.data(), body}), 4);
}

// A `.jidx` sidecar is advisory: whatever a damaged or crafted one says —
// even with a matching CRC — a point query returns exactly the records a
// walk of the shard returns, and never crashes.
TEST(Fuzz, EpochIndexSidecarNeverChangesPointQueries) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("jaal_fuzz_jidx_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const store::TimeShardConfig cfg{dir.string(), "t", 8};
  constexpr std::uint64_t kEpochs = 10;  // shard 0 = [0, 8), shard 1 = [8, 10)
  {
    // 0-3 records per epoch (epochs 2 and 5 empty), so the index has runs
    // of different lengths and gaps to lie about.
    store::TimeShardLog log(cfg, /*writable=*/true);
    std::mt19937_64 rng(16);
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const std::uint64_t n = (e == 2 || e == 5) ? 0 : 1 + (e + 1) % 3;
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto payload = random_bytes(rng, 1 + rng() % 24);
        ASSERT_TRUE(log.append(e, i, store::RecordKind::kAlert, payload));
      }
    }
  }
  const fs::path sidecar = dir / "t.000000.jidx";
  std::vector<std::uint8_t> valid;
  {
    std::ifstream in(sidecar, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(valid.size(), store::kIndexHeaderBytes + 6 * 16 + 4);

  // The reference: with no sidecar, every point query walks the shard.
  fs::remove(sidecar);
  std::vector<std::vector<std::string>> walked;
  {
    const store::TimeShardLog reader(cfg, /*writable=*/false);
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      walked.push_back(epoch_records(reader, e));
    }
  }
  ASSERT_EQ(walked[4].size(), 3u);

  const auto expect_walk = [&](const std::vector<std::uint8_t>& bytes,
                               const std::string& what) {
    {
      std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    telemetry::Telemetry tel;
    const store::TimeShardLog reader(cfg, /*writable=*/false, &tel);
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      EXPECT_EQ(epoch_records(reader, e), walked[e]) << what << " epoch " << e;
    }
    return tel.metrics.snapshot();
  };

  // The genuine sidecar answers every shard-0 query without a walk.
  const auto metrics = expect_walk(valid, "valid");
#ifndef JAAL_TELEMETRY_DISABLED
  for (const auto& m : metrics.entries) {
    if (m.name == "jaal_store_index_fallback_scans_total") {
      EXPECT_EQ(m.counter, 0u);
    }
  }
#endif

  // An entry count whose byte size wraps around 2^64: 2^60 + 1 entries
  // "fit" in a 60-byte file whose CRC matches.
  auto wrapped = valid;
  wrapped.resize(store::kIndexHeaderBytes + 16 + 4);
  put_le(wrapped, 32, (std::uint64_t{1} << 60) + 1, 8);
  recompute_crc(wrapped);
  (void)expect_walk(wrapped, "wrapped count");

  // Every single-field lie: each entry's epoch replaced by every epoch of
  // the log, and its offset by every record boundary of the shard.
  std::vector<std::uint64_t> boundaries;
  {
    std::ifstream in(dir / "t.000000.jstore", std::ios::binary);
    const std::vector<std::uint8_t> shard(std::istreambuf_iterator<char>(in),
                                          {});
    std::size_t offset = store::kShardHeaderBytes;
    boundaries.push_back(offset);
    while (store::next_record(shard, offset)) boundaries.push_back(offset);
  }
  ASSERT_EQ(boundaries.size(), 16u);  // 15 records
  for (std::size_t entry = 0; entry < 6; ++entry) {
    const std::size_t at = store::kIndexHeaderBytes + entry * 16;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      auto lie = valid;
      put_le(lie, at, e, 8);
      recompute_crc(lie);
      (void)expect_walk(lie, "entry " + std::to_string(entry) + " epoch " +
                                 std::to_string(e));
    }
    for (const std::uint64_t b : boundaries) {
      auto lie = valid;
      put_le(lie, at + 8, b, 8);
      recompute_crc(lie);
      (void)expect_walk(lie, "entry " + std::to_string(entry) + " offset " +
                                 std::to_string(b));
    }
  }

  // Random damage, re-signed so the CRC cannot catch it.
  std::mt19937_64 rng(17);
  for (int i = 0; i < 1000; ++i) {
    auto mutated = valid;
    for (std::size_t n = 1 + rng() % 3; n > 0; --n) {
      mutated[rng() % (mutated.size() - 4)] = static_cast<std::uint8_t>(rng());
    }
    if (rng() % 8 == 0) {
      mutated.resize(store::kIndexHeaderBytes + 4 + rng() % (6 * 16));
    }
    recompute_crc(mutated);
    (void)expect_walk(mutated, "mutation " + std::to_string(i));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jaal
