// LinkQueue: serialization + propagation timing, tail drops keyed by
// simulated time, high-water marks, and labeled telemetry counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netsim/link.hpp"
#include "telemetry/telemetry.hpp"

namespace jaal::netsim {
namespace {

TEST(LinkQueue, RejectsBadConfig) {
  EventQueue events;
  LinkConfig bad_rate;
  bad_rate.rate_bytes_per_s = 0.0;
  EXPECT_THROW(LinkQueue(events, bad_rate), std::invalid_argument);
  LinkConfig bad_queue;
  bad_queue.queue_limit_bytes = 0;
  EXPECT_THROW(LinkQueue(events, bad_queue), std::invalid_argument);
}

TEST(LinkQueue, DeliversAfterSerializationAndPropagation) {
  EventQueue events;
  LinkConfig cfg;
  cfg.rate_bytes_per_s = 1000.0;  // 1 byte per ms
  cfg.propagation_s = 0.5;
  LinkQueue link(events, cfg);
  std::vector<std::pair<std::size_t, double>> delivered;
  link.set_deliver([&](std::size_t bytes, double now) {
    delivered.emplace_back(bytes, now);
  });

  EXPECT_TRUE(link.offer(100));  // serializes [0, 0.1], arrives 0.6
  EXPECT_TRUE(link.offer(200));  // serializes [0.1, 0.3], arrives 0.8
  (void)events.run_until(10.0);

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, 100u);
  EXPECT_DOUBLE_EQ(delivered[0].second, 0.6);
  EXPECT_EQ(delivered[1].first, 200u);
  EXPECT_DOUBLE_EQ(delivered[1].second, 0.8);
  EXPECT_EQ(link.messages_forwarded(), 2u);
  EXPECT_EQ(link.bytes_forwarded(), 300u);
  EXPECT_EQ(link.drops(), 0u);
  EXPECT_EQ(link.queue_depth_bytes(), 0u);
}

TEST(LinkQueue, TailDropsWhenQueueIsFull) {
  EventQueue events;
  LinkConfig cfg;
  cfg.rate_bytes_per_s = 100.0;
  cfg.queue_limit_bytes = 250;
  cfg.propagation_s = 0.0;
  LinkQueue link(events, cfg);

  // The message in service still occupies queue bytes until it finishes
  // serializing.
  EXPECT_TRUE(link.offer(100));   // qb = 100
  EXPECT_TRUE(link.offer(100));   // qb = 200
  EXPECT_FALSE(link.offer(100));  // 200 + 100 > 250: dropped
  EXPECT_TRUE(link.offer(50));    // 200 + 50 <= 250: fits
  EXPECT_EQ(link.queue_high_water_bytes(), 250u);

  (void)events.run_until(100.0);
  EXPECT_EQ(link.messages_forwarded(), 3u);
  EXPECT_EQ(link.bytes_forwarded(), 250u);
  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.dropped_bytes(), 100u);
  ASSERT_EQ(link.drop_log().size(), 1u);
  EXPECT_DOUBLE_EQ(link.drop_log()[0].sim_time, 0.0);
  EXPECT_EQ(link.drop_log()[0].bytes, 100u);
}

TEST(LinkQueue, DropLogIsKeyedBySimulatedTime) {
  // Two runs of the same schedule produce identical drop logs — the netsim
  // determinism rule (sim-time keyed, never wall clock).
  auto run_once = [] {
    EventQueue events;
    LinkConfig cfg;
    cfg.rate_bytes_per_s = 1000.0;
    cfg.queue_limit_bytes = 100;
    cfg.propagation_s = 0.0;
    LinkQueue link(events, cfg);
    for (int burst = 0; burst < 3; ++burst) {
      events.schedule(0.5 * burst, [&link] {
        (void)link.offer(80);
        (void)link.offer(80);  // 160 > 100: overflows
        (void)link.offer(80);  // ditto
      });
    }
    (void)events.run_until(10.0);
    return link.drop_log();
  };
  const std::vector<LinkDrop> a = run_once();
  const std::vector<LinkDrop> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].sim_time, b[i].sim_time);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

TEST(LinkQueue, PublishesLabeledTelemetry) {
  telemetry::Telemetry tel;
  EventQueue events;
  LinkConfig cfg;
  cfg.name = "m0-ctrl";
  cfg.rate_bytes_per_s = 1000.0;
  cfg.queue_limit_bytes = 100;
  cfg.propagation_s = 0.0;
  LinkQueue link(events, cfg);
  link.set_telemetry(&tel);

  EXPECT_TRUE(link.offer(60));   // qb = 60
  EXPECT_TRUE(link.offer(30));   // qb = 90
  EXPECT_FALSE(link.offer(90));  // 90 + 90 > 100: dropped
  (void)events.run_until(10.0);

  const telemetry::MetricsSnapshot snap = tel.metrics.snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& e : snap.entries) {
      if (e.name == name) return e.counter;
    }
    ADD_FAILURE() << "missing metric " << name;
    return 0;
  };
  EXPECT_EQ(
      counter("jaal_netsim_link_messages_forwarded_total{link=\"m0-ctrl\"}"),
      2u);
  EXPECT_EQ(counter("jaal_netsim_link_bytes_forwarded_total{link=\"m0-ctrl\"}"),
            90u);
  EXPECT_EQ(counter("jaal_netsim_link_drops_total{link=\"m0-ctrl\"}"), 1u);
  EXPECT_EQ(counter("jaal_netsim_link_dropped_bytes_total{link=\"m0-ctrl\"}"),
            90u);
  bool found_gauge = false;
  for (const auto& e : snap.entries) {
    if (e.name ==
        "jaal_netsim_link_queue_depth_high_water_bytes{link=\"m0-ctrl\"}") {
      found_gauge = true;
      EXPECT_EQ(e.gauge, 90);
    }
  }
  EXPECT_TRUE(found_gauge);
}

}  // namespace
}  // namespace jaal::netsim
