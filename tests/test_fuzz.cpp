// Robustness tests: every parser/decoder must reject arbitrary input with
// an exception (or a clean nullopt/skip), never crash, hang, or read out of
// bounds.  Deterministic pseudo-random fuzzing — cheap, repeatable, and run
// on every ctest invocation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <typeinfo>

#include "inference/aggregate.hpp"
#include "packet/wire.hpp"
#include "proto/messages.hpp"
#include "rules/rule.hpp"
#include "runtime/thread_pool.hpp"
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

/// Dynamic type name of what `fn` throws; empty when it returns.
template <typename Fn>
std::string thrown_type(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return typeid(e).name();
  }
  return "";
}

/// True when two aggregates hold the same rows, bit for bit.
bool same_aggregate(const inference::AggregatedSummary& a,
                    const inference::AggregatedSummary& b) {
  const auto x = a.centroids.data();
  const auto y = b.centroids.data();
  return a.centroids.rows() == b.centroids.rows() &&
         a.centroids.cols() == b.centroids.cols() && a.counts == b.counts &&
         a.origin == b.origin && a.local_index == b.local_index &&
         std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](double p, double q) {
                      return std::memcmp(&p, &q, sizeof(double)) == 0;
                    });
}

TEST(Fuzz, BatchedAddOfMutatedPayloadsRejectsCleanly) {
  // Each mutant rides in a batch behind its valid original.  The batched
  // add over parsed views must throw what deserialize + add(summary)
  // throws for the mutant, and then hold exactly the epoch it held before;
  // an accepted mutant must give deserialize + add's rows.
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  constexpr std::size_t k = 5, r = 3, p = 6;
  summarize::CombinedSummary combined;
  combined.monitor = 3;
  combined.centroids = linalg::Matrix(k, p);
  for (double& v : combined.centroids.data()) v = unit(rng);
  combined.counts = {4, 8, 15, 16, 23};
  summarize::SplitSummary split;
  split.monitor = 4;
  split.u_centroids = linalg::Matrix(k, r);
  for (double& v : split.u_centroids.data()) v = unit(rng);
  split.sigma = {3.0, 2.0, 0.5};
  split.vt = linalg::Matrix(r, p);
  for (double& v : split.vt.data()) v = unit(rng);
  split.counts = {42, 1, 2, 3, 5};
  summarize::CombinedSummary prior;
  prior.monitor = 9;
  prior.centroids = linalg::Matrix(2, p);
  prior.counts = {7, 7};
  const summarize::MonitorSummary held{prior};
  inference::Aggregator prior_only;
  prior_only.add(held);
  const inference::AggregatedSummary before = prior_only.take();

  runtime::ThreadPool pool(2);
  std::size_t rejected = 0, accepted = 0;
  const auto check = [&](const std::vector<std::uint8_t>& valid,
                         const std::vector<std::uint8_t>& mutant) {
    inference::Aggregator ref;
    ref.add(held);
    ref.add(summarize::deserialize(valid));
    const std::string want =
        thrown_type([&] { ref.add(summarize::deserialize(mutant)); });
    inference::Aggregator agg;
    agg.add(held);
    const std::string got = thrown_type([&] {
      const std::vector<summarize::SummaryView> batch = {
          summarize::parse_summary(valid), summarize::parse_summary(mutant)};
      agg.add(batch, &pool);
    });
    ASSERT_EQ(got, want);
    if (!got.empty()) {
      ++rejected;
      ASSERT_EQ(agg.summaries_added(), 1u);
      ASSERT_TRUE(same_aggregate(agg.take(), before));
      return;
    }
    ++accepted;
    ASSERT_TRUE(same_aggregate(agg.take(), ref.take()));
  };
  const auto put_u32 = [](std::vector<std::uint8_t>& b, std::size_t at,
                          std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };

  // Every scalar is 4 bytes on the wire.
  constexpr std::size_t sb = 4;
  // Offsets of every u32 dimension field: magic, version and tag come
  // first, then the monitor id.
  const std::vector<std::size_t> combined_dims = {7, 11, 15 + k * p * sb};
  const std::size_t nr = 15 + k * r * sb;
  const std::size_t vt_rows = nr + 4 + r * sb;
  const std::vector<std::size_t> split_dims = {
      7, 11, nr, vt_rows, vt_rows + 4, vt_rows + 8 + r * p * sb};
  const std::pair<summarize::MonitorSummary, std::vector<std::size_t>>
      shapes[] = {{combined, combined_dims}, {split, split_dims}};
  for (const auto& [summary, dims] : shapes) {
    const auto valid = summarize::serialize(summary);
    for (std::size_t len = 0; len < valid.size(); ++len) {
      check(valid, {valid.begin(), valid.begin() + static_cast<long>(len)});
    }
    for (int i = 0; i < 300; ++i) {
      auto mutant = valid;
      const std::size_t flips = 1 + rng() % 3;
      for (std::size_t f = 0; f < flips; ++f) {
        mutant[rng() % mutant.size()] ^= static_cast<std::uint8_t>(rng() | 1);
      }
      check(valid, mutant);
    }
    for (const std::size_t at : dims) {
      const std::uint32_t v = std::uint32_t{valid[at]} |
                              (std::uint32_t{valid[at + 1]} << 8) |
                              (std::uint32_t{valid[at + 2]} << 16) |
                              (std::uint32_t{valid[at + 3]} << 24);
      for (const std::uint32_t x :
           {0u, 1u, v - 1, v + 1, 2 * v, 1u << 20, 0xFFFFFFFFu}) {
        auto mutant = valid;
        put_u32(mutant, at, x);
        check(valid, mutant);
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

TEST(Fuzz, RankZeroSummaryClaimingHugeWidthIsRefused) {
  // A rank-0 split summary carries a 1 x 0 U~_r and a 0 x p V_r^T: no
  // scalars on the wire whatever p claims, but the aggregate would hold its
  // 1 x p reconstruction, so a 35-byte record could ask for p doubles.
  summarize::SplitSummary s;
  s.monitor = 2;
  s.u_centroids = linalg::Matrix(1, 0);
  s.vt = linalg::Matrix(0, 2);
  s.counts = {1};
  const auto valid = summarize::serialize(summarize::MonitorSummary{s});
  ASSERT_EQ(valid.size(), 35u);
  ASSERT_NO_THROW((void)summarize::parse_summary(valid));
  // magic, version, tag, monitor, U rows, U cols, rank, V^T rows: V^T cols.
  constexpr std::size_t kVtCols = 23;
  constexpr auto kWidest =
      static_cast<std::uint32_t>(summarize::kMaxSummaryCols);
  for (const std::uint32_t cols :
       {kWidest + 1, 1u << 26, (1u << 26) + 1, 0xFFFFFFFFu}) {
    auto bytes = valid;
    for (int i = 0; i < 4; ++i) {
      bytes[kVtCols + i] = static_cast<std::uint8_t>(cols >> (8 * i));
    }
    EXPECT_THROW((void)summarize::parse_summary(bytes), std::runtime_error);
    EXPECT_THROW((void)summarize::deserialize(bytes), std::runtime_error);
    inference::Aggregator agg;
    EXPECT_THROW(
        {
          const std::vector<summarize::SummaryView> batch = {
              summarize::parse_summary(bytes)};
          agg.add(batch);
        },
        std::runtime_error);
    EXPECT_EQ(agg.summaries_added(), 0u);
    EXPECT_TRUE(agg.take().empty());
  }
  // The bound is the field width (kMaxSummaryCols), so a rank-0 row costs
  // at most 128x its 4 count bytes.
  auto widest = valid;
  for (int i = 0; i < 4; ++i) {
    widest[kVtCols + i] = static_cast<std::uint8_t>(kWidest >> (8 * i));
  }
  EXPECT_EQ(summarize::parse_summary(widest).cols, kWidest);
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

/// Runs `f` and expects the proto decoder's refusal of an element count,
/// not another error and not std::bad_alloc.
template <class F>
void expect_count_refused(F&& f, const std::string& label) {
  try {
    f();
    ADD_FAILURE() << label << ": accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
        << label << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << typeid(e).name() << " " << e.what();
  }
}

TEST(Fuzz, ProtoCountBeyondFrameIsRefused) {
  // A 13-byte raw-packet request (tag 3) or response (tag 4) frame whose
  // element count cannot fit in its body: the decoder refuses the count
  // before it reserves room for it (2^27 packet records are 8 GiB).
  for (const std::uint8_t tag : {std::uint8_t{3}, std::uint8_t{4}}) {
    for (const std::uint32_t n : {1u << 27, 0xFFFFFFFFu}) {
      std::vector<std::uint8_t> frame = {9, 0, 0, 0, tag, 7, 0, 0, 0};
      for (int i = 0; i < 4; ++i) {
        frame.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
      }
      const std::string label =
          "tag " + std::to_string(tag) + " n " + std::to_string(n);
      expect_count_refused([&] { (void)proto::decode(frame); }, label);
      proto::FrameReader reader;
      reader.feed(frame);
      expect_count_refused([&] { (void)reader.next(); }, label + " stream");
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
  // shard_count is ignored: the payload is the fixed 32 bytes.
  const auto valid = store::encode_epoch_meta({7, 3.5, 4000, 0.75, 0.25, 4});
  ASSERT_EQ(valid.size(), 32u);
  // Every strict prefix and every extension is refused.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(store::decode_epoch_meta(7, {valid.data(), cut}).has_value())
        << "cut=" << cut;
  }
  for (std::size_t extra = 1; extra <= 8; ++extra) {
    auto longer = valid;
    longer.resize(valid.size() + extra, 1);
    EXPECT_FALSE(store::decode_epoch_meta(7, longer).has_value())
        << "extra=" << extra;
  }
  // The fields are fixed-width and take any bit pattern, so a flipped
  // payload always decodes.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = valid;
    (void)flip_bits(mutated, rng);
    EXPECT_TRUE(store::decode_epoch_meta(7, mutated).has_value());
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

/// Every valid record of the log in append order, as text.
std::vector<std::string> all_records(const store::TimeShardLog& log) {
  std::vector<std::string> out;
  log.for_each([&](const store::RecordView& rec) {
    out.push_back(std::to_string(rec.epoch) + '/' + std::to_string(rec.stream) +
                  ':' + std::string(rec.payload.begin(), rec.payload.end()));
    return true;
  });
  return out;
}

std::vector<std::uint8_t> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// A damaged `.jstore` shard header: opening the log either refuses with the
// documented std::invalid_argument (magic intact or shard not the tail, but
// a field disagrees) or reads exactly the records it read before — minus the
// tail shard when its magic no longer matches, the documented torn-roll
// skip.  Reserved bytes are not validated.  Opening never crashes, and a
// reader never rewrites or truncates the shard.
TEST(Fuzz, ShardHeaderMutationRefusesOrReadsSame) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("jaal_fuzz_jstore_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const store::TimeShardConfig cfg{dir.string(), "h", 8};
  {
    store::TimeShardLog log(cfg, /*writable=*/true);
    std::mt19937_64 rng(18);
    for (std::uint64_t e = 0; e < 10; ++e) {  // shard 0 = [0, 8), 1 = [8, 10)
      for (std::uint32_t i = 0; i < 1 + e % 3; ++i) {
        ASSERT_TRUE(log.append(e, i, store::RecordKind::kAlert,
                               random_bytes(rng, 1 + rng() % 24)));
      }
    }
  }
  std::vector<std::string> want_all;
  {
    const store::TimeShardLog reader(cfg, /*writable=*/false);
    want_all = all_records(reader);
  }
  ASSERT_EQ(want_all.size(), 19u);
  std::vector<std::string> want_head;  // shard 0 only
  for (const auto& rec : want_all) {
    if (std::stoull(rec) < 8) want_head.push_back(rec);
  }

  for (const std::uint64_t shard : {0u, 1u}) {
    const bool tail = shard == 1;
    const fs::path path =
        dir / (shard == 0 ? "h.000000.jstore" : "h.000001.jstore");
    const std::vector<std::uint8_t> valid = file_bytes(path);
    ASSERT_GT(valid.size(), store::kShardHeaderBytes);

    const auto trial = [&](const std::vector<std::uint8_t>& mutated,
                           const std::string& what) {
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(mutated.data()),
                  static_cast<std::streamsize>(mutated.size()));
      }
      const auto same = [&](std::size_t from, std::size_t to) {
        return std::equal(valid.begin() + from, valid.begin() + to,
                          mutated.begin() + from);
      };
      const bool magic_ok = same(0, 8);
      const bool header_ok = magic_ok && same(8, 32);
      const bool want_refusal = !header_ok && (magic_ok || !tail);
      const auto& want = header_ok || !tail ? want_all : want_head;

      bool refused = false;
      try {
        const store::TimeShardLog reader(cfg, /*writable=*/false);
        EXPECT_EQ(all_records(reader), want) << what;
      } catch (const std::invalid_argument&) {
        refused = true;
      }
      EXPECT_EQ(refused, want_refusal) << what;
      EXPECT_EQ(file_bytes(path), mutated) << what << ": reader touched it";
      if (tail) return;  // writers delete a torn tail roll by design
      refused = false;
      try {
        const store::TimeShardLog writer(cfg, /*writable=*/true);
        EXPECT_EQ(all_records(writer), want) << what << " (writer)";
      } catch (const std::invalid_argument&) {
        refused = true;
      }
      EXPECT_EQ(refused, want_refusal) << what << " (writer)";
      EXPECT_EQ(file_bytes(path), mutated) << what << ": writer touched it";
    };

    const std::string name = "shard " + std::to_string(shard);
    for (std::size_t at = 0; at < store::kShardHeaderBytes; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = valid;
        mutated[at] ^= static_cast<std::uint8_t>(1u << bit);
        trial(mutated, name + " byte " + std::to_string(at) + " bit " +
                           std::to_string(bit));
      }
    }
    std::mt19937_64 rng(19 + shard);
    for (int i = 0; i < 300; ++i) {
      auto mutated = valid;
      for (std::size_t n = 1 + rng() % 4; n > 0; --n) {
        mutated[rng() % store::kShardHeaderBytes] =
            static_cast<std::uint8_t>(rng());
      }
      trial(mutated, name + " mutation " + std::to_string(i));
    }
    auto zeroed = valid;
    std::fill_n(zeroed.begin(), store::kShardHeaderBytes, std::uint8_t{0});
    trial(zeroed, name + " zeroed header");
    trial(valid, name + " restored");
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace jaal
