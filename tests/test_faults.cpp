// Unit tests for the fault-injection transport: scenario validation,
// deterministic seeded loss, crash windows, delay-model lateness against
// the deadline, and the provably bounded feedback retry.
#include "faults/transport.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace jaal::faults {
namespace {

std::vector<packet::PacketRecord> some_packets(std::size_t n) {
  return std::vector<packet::PacketRecord>(n);
}

TEST(Faults, ScenarioValidationThrowsOnMisconfiguration) {
  FaultScenario bad;
  bad.drop_rate = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.crashes.push_back({0, 5, 2});  // restart before crash
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.retry.max_attempts = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.retry.multiplier = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // NaN fails every range check (a NaN multiplier would otherwise make
  // fetch() accrue a NaN backoff).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double FaultScenario::*field :
       {&FaultScenario::drop_rate, &FaultScenario::delay_mean_s,
        &FaultScenario::delay_jitter_s,
        &FaultScenario::feedback_failure_rate}) {
    bad = {};
    bad.*field = nan;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  for (double RetryPolicy::*field :
       {&RetryPolicy::multiplier, &RetryPolicy::timeout_s,
        &RetryPolicy::base_backoff_s}) {
    bad = {};
    bad.retry.*field = nan;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  // The transport constructor enforces the same policy.
  bad = {};
  bad.feedback_failure_rate = -0.1;
  EXPECT_THROW(SummaryTransport(bad, 2), std::invalid_argument);
  EXPECT_NO_THROW(FaultScenario{}.validate());
}

TEST(Faults, FaultFreeScenarioDeliversEverythingInstantly) {
  FaultScenario none;
  EXPECT_TRUE(none.fault_free());
  SummaryTransport transport(none, 3);
  transport.begin_epoch(0, 10.0, 12.0);
  for (std::size_t m = 0; m < 3; ++m) {
    const ShipOutcome out = transport.ship(m, 4096);
    EXPECT_EQ(out.status, ShipStatus::kDelivered);
    EXPECT_DOUBLE_EQ(out.arrival_time, 10.0);
  }
  EXPECT_EQ(transport.stats().summaries_delivered, 3u);
  EXPECT_EQ(transport.stats().summaries_dropped, 0u);
}

TEST(Faults, SeededDropsAreDeterministicAcrossTransports) {
  FaultScenario scenario;
  scenario.seed = 99;
  scenario.drop_rate = 0.4;
  std::vector<ShipStatus> a, b;
  for (std::vector<ShipStatus>* out : {&a, &b}) {
    SummaryTransport transport(scenario, 4);
    for (std::uint64_t epoch = 0; epoch < 32; ++epoch) {
      transport.begin_epoch(epoch, static_cast<double>(epoch), epoch + 0.5);
      for (std::size_t m = 0; m < 4; ++m) {
        out->push_back(transport.ship(m, 1000).status);
      }
    }
  }
  EXPECT_EQ(a, b);
  // With drop_rate 0.4 over 128 ships both fates must occur.
  EXPECT_NE(std::count(a.begin(), a.end(), ShipStatus::kDropped), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), ShipStatus::kDelivered), 0);
}

TEST(Faults, CrashWindowsSilenceTheMonitorForWholeEpochs) {
  FaultScenario scenario;
  scenario.crashes.push_back({1, 3, 6});
  SummaryTransport transport(scenario, 2);
  EXPECT_TRUE(transport.monitor_up(1, 2));
  EXPECT_FALSE(transport.monitor_up(1, 3));
  EXPECT_FALSE(transport.monitor_up(1, 5));
  EXPECT_TRUE(transport.monitor_up(1, 6));   // restart epoch: back up
  EXPECT_TRUE(transport.monitor_up(0, 4));   // other monitors unaffected
}

TEST(Faults, SlowLinkMakesSummariesLateAndDeadlineIsHonored) {
  FaultScenario scenario;
  scenario.seed = 11;
  scenario.delay_mean_s = 4.0;  // mean delay four times the 1 s deadline
  SummaryTransport tight(scenario, 4);
  SummaryTransport generous(scenario, 4);
  std::uint64_t late = 0, on_time = 0;
  for (std::uint64_t epoch = 0; epoch < 16; ++epoch) {
    const double now = 10.0 * static_cast<double>(epoch);
    tight.begin_epoch(epoch, now, now + 1.0);
    generous.begin_epoch(epoch, now, now + 1e6);
    for (std::size_t m = 0; m < 4; ++m) {
      const ShipOutcome out = tight.ship(m, 4000);
      ASSERT_GE(out.arrival_time, now);
      // The deadline alone decides lateness: arrivals past it are late,
      // the rest are delivered.
      if (out.arrival_time > now + 1.0) {
        EXPECT_EQ(out.status, ShipStatus::kLate);
        ++late;
      } else {
        EXPECT_EQ(out.status, ShipStatus::kDelivered);
        ++on_time;
      }
      // The delay is drawn from (seed, epoch, monitor) only, so a later
      // deadline sees the same arrival and delivers it.
      const ShipOutcome same = generous.ship(m, 4000);
      EXPECT_EQ(same.status, ShipStatus::kDelivered);
      EXPECT_DOUBLE_EQ(same.arrival_time, out.arrival_time);
    }
  }
  EXPECT_GT(late, on_time);  // P(delay > 1 s) = e^(-1/4) ~ 0.78
  EXPECT_GT(on_time, 0u);
  EXPECT_EQ(tight.stats().summaries_late, late);
  EXPECT_EQ(tight.stats().summaries_delivered, on_time);
  EXPECT_EQ(generous.stats().summaries_late, 0u);
}

TEST(Faults, RetrySucceedsFirstAttemptWhenHealthy) {
  SummaryTransport transport(FaultScenario{}, 1);
  transport.begin_epoch(0, 0.0, 1.0);
  const FetchResult r =
      transport.fetch(0, [](std::size_t) { return some_packets(5); });
  ASSERT_TRUE(r.packets.has_value());
  EXPECT_EQ(r.packets->size(), 5u);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_DOUBLE_EQ(r.backoff_s, 0.0);
}

TEST(Faults, RetryAttemptsAndBackoffAreProvablyBounded) {
  FaultScenario scenario;
  scenario.feedback_failure_rate = 1.0;  // every attempt fails
  scenario.retry.max_attempts = 4;
  scenario.retry.base_backoff_s = 0.1;
  scenario.retry.multiplier = 2.0;
  scenario.retry.timeout_s = 10.0;  // not the binding constraint here
  SummaryTransport transport(scenario, 1);
  transport.begin_epoch(0, 0.0, 1.0);
  std::size_t calls = 0;
  const FetchResult r = transport.fetch(0, [&](std::size_t) {
    ++calls;
    return some_packets(1);
  });
  EXPECT_FALSE(r.packets.has_value());
  EXPECT_EQ(calls, 0u);  // never reached the monitor
  // Bounded attempts: exactly max_attempts, never more.
  EXPECT_EQ(r.attempts, 4u);
  // Bounded backoff: 0.1 + 0.2 + 0.4 between the 4 attempts.
  EXPECT_DOUBLE_EQ(r.backoff_s, 0.7);
  EXPECT_LE(r.backoff_s, scenario.retry.max_total_backoff_s());
  EXPECT_EQ(transport.stats().fetch_giveups, 1u);
  EXPECT_EQ(transport.stats().fetch_attempts, 4u);
}

TEST(Faults, RetryTimeoutCutsBackoffShort) {
  FaultScenario scenario;
  scenario.feedback_failure_rate = 1.0;
  scenario.retry.max_attempts = 10;
  scenario.retry.base_backoff_s = 0.5;
  scenario.retry.multiplier = 2.0;
  scenario.retry.timeout_s = 0.6;  // allows one 0.5 s backoff, not a 1.0 s
  SummaryTransport transport(scenario, 1);
  transport.begin_epoch(0, 0.0, 1.0);
  const FetchResult r =
      transport.fetch(0, [](std::size_t) { return some_packets(1); });
  EXPECT_FALSE(r.packets.has_value());
  EXPECT_EQ(r.attempts, 2u);  // attempt, back off 0.5 s, attempt, budget out
  EXPECT_DOUBLE_EQ(r.backoff_s, 0.5);
  EXPECT_LE(r.backoff_s, scenario.retry.timeout_s);
  EXPECT_DOUBLE_EQ(scenario.retry.max_total_backoff_s(), 0.6);
}

TEST(Faults, CrashedMonitorFailsEveryFetchAttempt) {
  FaultScenario scenario;
  scenario.crashes.push_back({0, 2, 4});
  scenario.retry.max_attempts = 3;
  SummaryTransport transport(scenario, 1);
  transport.begin_epoch(2, 0.0, 1.0);  // inside the crash window
  std::size_t calls = 0;
  const FetchResult down = transport.fetch(0, [&](std::size_t) {
    ++calls;
    return some_packets(1);
  });
  EXPECT_FALSE(down.packets.has_value());
  EXPECT_EQ(down.attempts, 3u);
  EXPECT_EQ(calls, 0u);
  transport.begin_epoch(4, 2.0, 3.0);  // after restart
  const FetchResult up =
      transport.fetch(0, [](std::size_t) { return some_packets(2); });
  ASSERT_TRUE(up.packets.has_value());
  EXPECT_EQ(up.packets->size(), 2u);
}

TEST(Faults, ShipAccountingIsConsistent) {
  FaultScenario scenario;
  scenario.seed = 3;
  scenario.drop_rate = 0.3;
  scenario.delay_mean_s = 0.2;
  scenario.delay_jitter_s = 0.1;
  SummaryTransport transport(scenario, 4);
  for (std::uint64_t epoch = 0; epoch < 16; ++epoch) {
    transport.begin_epoch(epoch, static_cast<double>(epoch), epoch + 0.25);
    for (std::size_t m = 0; m < 4; ++m) (void)transport.ship(m, 2000);
  }
  const TransportStats& s = transport.stats();
  EXPECT_EQ(s.summaries_shipped, 64u);
  EXPECT_EQ(s.summaries_delivered + s.summaries_dropped + s.summaries_late,
            s.summaries_shipped);
  EXPECT_GT(s.summaries_late, 0u);  // mean delay ~ deadline: some miss it
}

}  // namespace
}  // namespace jaal::faults
