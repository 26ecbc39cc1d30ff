#include "inference/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>

#include "core/experiment.hpp"

namespace jaal::inference {
namespace {

using packet::FieldIndex;
using packet::PacketRecord;

std::vector<rules::Rule> flood_ruleset() {
  return rules::parse_rules(
      "alert tcp any any -> 203.0.10.5 any (msg:\"flood\"; flags:S; "
      "detection_filter: count 100, seconds 2; sid:1;)",
      core::evaluation_rule_vars());
}

/// Aggregate with one centroid at distance `dist` (in normalized-L1 terms)
/// from the flood question, carrying `count` packets.
AggregatedSummary aggregate_at_distance(double dist, std::uint64_t count) {
  AggregatedSummary agg;
  agg.centroids = linalg::Matrix(1, packet::kFieldCount);
  auto row = agg.centroids.row(0);
  // Question pins dst addr, flags; leave dst_port wildcarded by the rule.
  row[packet::index(FieldIndex::kIpDstAddr)] =
      packet::normalize_field(FieldIndex::kIpDstAddr,
                              packet::make_ip(203, 0, 10, 5));
  row[packet::index(FieldIndex::kTcpFlags)] = 2.0 / 63.0 + 2.0 * dist;
  agg.counts = {count};
  agg.origin = {0};
  agg.local_index = {0};
  return agg;
}

RawPacketFetcher fetcher_returning(std::vector<PacketRecord> packets) {
  return [packets](summarize::MonitorId,
                   const std::vector<std::size_t>&) { return packets; };
}

std::vector<PacketRecord> matching_syns(std::size_t n) {
  std::vector<PacketRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    PacketRecord pkt;
    pkt.ip.src_ip = 1234;
    pkt.ip.dst_ip = packet::make_ip(203, 0, 10, 5);
    pkt.tcp.set(packet::TcpFlag::kSyn);
    out.push_back(pkt);
  }
  return out;
}

TEST(Engine, ValidatesConfig) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.5, 0.1};  // tau_d2 < tau_d1
  EXPECT_THROW(InferenceEngine(flood_ruleset(), cfg), std::invalid_argument);
  EXPECT_THROW(InferenceEngine({}, EngineConfig{}), std::invalid_argument);
}

TEST(Engine, Case1StrictMatchAlertsWithoutFeedback) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.15};
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.0, 500);
  bool fetch_called = false;
  const auto alerts = engine.infer(
      agg, [&](summarize::MonitorId, const std::vector<std::size_t>&) {
        fetch_called = true;
        return std::vector<PacketRecord>{};
      });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_FALSE(alerts[0].via_feedback);
  EXPECT_FALSE(fetch_called);
  EXPECT_EQ(engine.stats().feedback_requests, 0u);
}

TEST(Engine, Case2NoMatchNoAlert) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.02, 0.05};
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.5, 500);  // far from question
  EXPECT_TRUE(engine.infer(agg, nullptr).empty());
}

TEST(Engine, Case3FeedbackConfirmsRealAttack) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};  // strict misses, loose hits
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  const auto alerts =
      engine.infer(agg, fetcher_returning(matching_syns(150)));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].via_feedback);
  EXPECT_EQ(engine.stats().feedback_requests, 1u);
  EXPECT_EQ(engine.stats().raw_packets_fetched, 150u);
  EXPECT_EQ(engine.stats().raw_bytes_fetched, 150u * packet::kHeadersBytes);
}

TEST(Engine, Case3FeedbackRefutesFalsePositive) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  // Raw packets reveal only 5 exact SYNs: below the raw-evidence threshold
  // (kRawEvidenceFactor x count = 35).
  const auto alerts =
      engine.infer(agg, fetcher_returning(matching_syns(5)));
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(engine.stats().feedback_requests, 1u);
}

TEST(Engine, FeedbackDisabledFallsBackToLooseDecision) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};
  cfg.feedback_enabled = false;
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  const auto alerts = engine.infer(agg, nullptr);
  ASSERT_EQ(alerts.size(), 1u);  // loose threshold decision accepted
  EXPECT_FALSE(alerts[0].via_feedback);
}

TEST(Engine, TauCScaleAdjustsCounts) {
  // count 100 calibrated for the nominal window; a half-volume window
  // (tau_c_scale 0.5) needs only 50 matched packets.
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.05};
  cfg.tau_c_scale = 0.5;
  InferenceEngine engine(flood_ruleset(), cfg);
  EXPECT_EQ(engine.infer(aggregate_at_distance(0.0, 60), nullptr).size(), 1u);
  engine.set_tau_c_scale(1.0);
  EXPECT_DOUBLE_EQ(engine.tau_c_scale(), 1.0);
  EXPECT_TRUE(engine.infer(aggregate_at_distance(0.0, 60), nullptr).empty());
}

TEST(Engine, PerRuleThresholdOverrides) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.0, 0.0};
  cfg.per_rule[1] = {0.1, 0.1};
  InferenceEngine engine(flood_ruleset(), cfg);
  EXPECT_DOUBLE_EQ(engine.thresholds_for(1).tau_d1, 0.1);
  EXPECT_DOUBLE_EQ(engine.thresholds_for(999).tau_d1, 0.0);
  const auto agg = aggregate_at_distance(0.05, 500);
  EXPECT_EQ(engine.infer(agg, nullptr).size(), 1u);
}

TEST(Engine, DistributedClassificationViaPostprocessor) {
  // Two matching centroids with widely different source addresses: the
  // opportunistic postprocessor should tag the alert distributed.
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.05};
  InferenceEngine engine(flood_ruleset(), cfg);
  AggregatedSummary agg = aggregate_at_distance(0.0, 300);
  AggregatedSummary second = aggregate_at_distance(0.0, 300);
  second.centroids(0, packet::index(FieldIndex::kIpSrcAddr)) = 0.9;
  // Merge manually.
  linalg::Matrix both(2, packet::kFieldCount);
  for (std::size_t j = 0; j < packet::kFieldCount; ++j) {
    both(0, j) = agg.centroids(0, j);
    both(1, j) = second.centroids(0, j);
  }
  agg.centroids = both;
  agg.counts = {300, 300};
  agg.origin = {0, 0};
  agg.local_index = {0, 1};
  const auto alerts = engine.infer(agg, nullptr);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].distributed);
  EXPECT_GT(alerts[0].variance, 0.0);
}

TEST(Engine, VerifyAllAlertsSuppressesUnconfirmedCase1) {
  // Strict match fires (case 1), but the raw packets behind the centroid
  // contain almost no exact matches: §10 verification kills the alert.
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.15};
  cfg.verify_all_alerts = true;
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.0, 500);
  const auto alerts = engine.infer(agg, fetcher_returning(matching_syns(5)));
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(engine.stats().alerts_suppressed, 1u);
}

TEST(Engine, VerifyAllAlertsConfirmsRealCase1) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.15};
  cfg.verify_all_alerts = true;
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto agg = aggregate_at_distance(0.0, 500);
  const auto alerts =
      engine.infer(agg, fetcher_returning(matching_syns(200)));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(engine.stats().alerts_suppressed, 0u);
}

TEST(Engine, VerifyAllAlertsNoopWithoutFetcher) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.05, 0.15};
  cfg.verify_all_alerts = true;
  cfg.feedback_enabled = false;
  InferenceEngine engine(flood_ruleset(), cfg);
  const auto alerts = engine.infer(aggregate_at_distance(0.0, 500), nullptr);
  EXPECT_EQ(alerts.size(), 1u);  // nothing to verify against
}

TEST(Engine, RawCountOverridesVerificationThreshold) {
  // Same scenario as Case3FeedbackRefutesFalsePositive, but the rule pins
  // jaal_raw_count to 5, so 5 exact matches now confirm.
  auto rules = rules::parse_rules(
      "alert tcp any any -> 203.0.10.5 any (msg:\"flood\"; flags:S; "
      "detection_filter: count 100, seconds 2; jaal_raw_count: 5; sid:1;)",
      core::evaluation_rule_vars());
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};
  InferenceEngine engine(std::move(rules), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  const auto alerts = engine.infer(agg, fetcher_returning(matching_syns(5)));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].via_feedback);
}

TEST(Engine, FetchCacheCountsBytesOnce) {
  // Two rules matching the same centroid must not double-bill the fetch.
  auto rules = rules::parse_rules(
      "alert tcp any any -> 203.0.10.5 any (msg:\"a\"; flags:S; "
      "detection_filter: count 100, seconds 2; sid:1;)\n"
      "alert tcp any any -> 203.0.10.5 any (msg:\"b\"; flags:S; "
      "detection_filter: count 100, seconds 2; sid:2;)",
      core::evaluation_rule_vars());
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};  // both go through case 3
  InferenceEngine engine(std::move(rules), cfg);
  const auto agg = aggregate_at_distance(0.05, 500);
  std::size_t fetch_calls = 0;
  const auto alerts = engine.infer(
      agg, [&](summarize::MonitorId, const std::vector<std::size_t>&) {
        ++fetch_calls;
        return matching_syns(150);
      });
  EXPECT_EQ(alerts.size(), 2u);
  EXPECT_EQ(fetch_calls, 1u);  // second rule served from the cache
  EXPECT_EQ(engine.stats().raw_packets_fetched, 150u);
  EXPECT_EQ(engine.stats().feedback_requests, 2u);
}

TEST(Engine, StatsResettable) {
  EngineConfig cfg;
  cfg.default_thresholds = {0.001, 0.2};
  InferenceEngine engine(flood_ruleset(), cfg);
  (void)engine.infer(aggregate_at_distance(0.05, 500),
                     fetcher_returning(matching_syns(150)));
  EXPECT_GT(engine.stats().feedback_requests, 0u);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().feedback_requests, 0u);
}

TEST(Engine, EmptyAggregateYieldsNothing) {
  EngineConfig cfg;
  InferenceEngine engine(flood_ruleset(), cfg);
  EXPECT_TRUE(engine.infer(AggregatedSummary{}, nullptr).empty());
}

TEST(Engine, NarrowRowsNeverMatch) {
  // A stored summary narrower than the field space (corrupt or foreign
  // data reaching replay) is not scored, even by a rule whose loose
  // threshold would match any well-formed row.
  EngineConfig cfg;
  cfg.default_thresholds = {1.0, 1.0};
  InferenceEngine engine(flood_ruleset(), cfg);
  AggregatedSummary agg;
  agg.centroids = linalg::Matrix{{0.25, 0.5}, {0.5, 0.1}};
  agg.counts = {500, 500};
  agg.origin = {0, 0};
  agg.local_index = {0, 1};
  for (const QuestionMatch& m : engine.match(agg)) {
    EXPECT_TRUE(m.strict.matched_rows.empty());
    EXPECT_TRUE(m.loose.matched_rows.empty());
  }
  EXPECT_TRUE(engine.infer(agg, nullptr).empty());
}

TEST(Engine, RejectsNanThresholds) {
  // NaN fails every comparison, so an ordering check written as "reject if
  // inverted" would wave it through; the strict set then need not nest.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const ThresholdPair bad : {ThresholdPair{kNaN, 0.05},
                                  ThresholdPair{0.02, kNaN},
                                  ThresholdPair{kNaN, kNaN}}) {
    EngineConfig by_default;
    by_default.default_thresholds = bad;
    EXPECT_THROW(InferenceEngine(flood_ruleset(), by_default),
                 std::invalid_argument);
    EngineConfig by_rule;
    by_rule.per_rule[1] = bad;
    EXPECT_THROW(InferenceEngine(flood_ruleset(), by_rule),
                 std::invalid_argument);
  }
  EngineConfig open_ended;
  open_ended.default_thresholds = {0.02,
                                   std::numeric_limits<double>::infinity()};
  EXPECT_NO_THROW(InferenceEngine(flood_ruleset(), open_ended));
}

TEST(Engine, NonFiniteKnobsTakeDocumentedValues) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  InferenceEngine engine(flood_ruleset(), EngineConfig{});
  engine.set_report_fraction(kNaN);
  EXPECT_EQ(engine.report_fraction(), 1.0);
  engine.set_caution(kNaN);
  EXPECT_EQ(engine.caution(), 0.0);

  const rules::Question& q = engine.questions().front();  // tau_c 100
  engine.set_tau_c_scale(0.5);
  EXPECT_EQ(engine.scaled_tau_c(q), 50u);
  engine.set_tau_c_scale(-3.0);
  EXPECT_EQ(engine.scaled_tau_c(q), 1u);
  // Out of uint64_t range, or NaN: saturate, so the rule cannot fire.
  engine.set_tau_c_scale(1e300);
  EXPECT_EQ(engine.scaled_tau_c(q), kNever);
  engine.set_tau_c_scale(std::numeric_limits<double>::infinity());
  EXPECT_EQ(engine.scaled_tau_c(q), kNever);
  engine.set_tau_c_scale(kNaN);
  EXPECT_EQ(engine.scaled_tau_c(q), kNever);
  // Just inside the range the product converts exactly; just past it, it
  // saturates.
  engine.set_tau_c_scale(0x1p57);
  EXPECT_EQ(engine.scaled_tau_c(q), std::uint64_t{100} << 57);
  engine.set_tau_c_scale(0x1p58);
  EXPECT_EQ(engine.scaled_tau_c(q), kNever);
}

TEST(Engine, PooledMatchEqualsSerial) {
  // match() scores the rules on the pool; every rule's strict and loose
  // results must equal the serial pass's, bit for bit.
  InferenceEngine engine(
      rules::parse_rules(rules::default_ruleset_text(),
                         core::evaluation_rule_vars()),
      EngineConfig{});
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  AggregatedSummary agg;
  agg.centroids = linalg::Matrix(2000, packet::kFieldCount);
  for (double& v : agg.centroids.data()) v = unit(rng);
  for (std::size_t i = 0; i < agg.centroids.rows(); ++i) {
    agg.counts.push_back(1 + rng() % 20);
    agg.origin.push_back(static_cast<summarize::MonitorId>(i % 8));
    agg.local_index.push_back(i / 8);
  }
  const std::vector<QuestionMatch> serial = engine.match(agg);
  engine.set_pool(std::make_shared<runtime::ThreadPool>(3));
  const std::vector<QuestionMatch> pooled = engine.match(agg);
  ASSERT_EQ(pooled.size(), serial.size());
  std::size_t matched = 0;
  for (std::size_t qi = 0; qi < serial.size(); ++qi) {
    for (const auto& [got, want] :
         {std::pair{&pooled[qi].strict, &serial[qi].strict},
          std::pair{&pooled[qi].loose, &serial[qi].loose}}) {
      EXPECT_EQ(got->alert, want->alert);
      EXPECT_EQ(got->matched_count, want->matched_count);
      EXPECT_EQ(got->matched_rows, want->matched_rows);
      EXPECT_EQ(got->matched_distances, want->matched_distances);
      matched += want->matched_rows.size();
    }
  }
  EXPECT_GT(matched, 0u);  // the comparison saw matches, not only misses
}

}  // namespace
}  // namespace jaal::inference
