// Determinism contract of the execution runtime: every parallelized stage
// (k-means assignment, monitor epoch flush, question matching) must produce
// bit-identical results to the serial path — threads change wall clock,
// never output.
#include <gtest/gtest.h>

#include "attack/generators.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "summarize/summarizer.hpp"
#include "trace/mix.hpp"

namespace jaal::core {
namespace {

std::vector<rules::Rule> ruleset() {
  return rules::parse_rules(rules::default_ruleset_text(),
                            evaluation_rule_vars());
}

std::vector<packet::PacketRecord> traffic(std::size_t n, std::uint64_t seed) {
  trace::BackgroundTraffic gen(trace::trace1_profile(), seed);
  return trace::take(gen, n);
}

TEST(ParallelEquivalence, KMeansAssignmentBitIdenticalAcrossPools) {
  const auto packets = traffic(900, 5);
  const linalg::Matrix x = summarize::to_normalized_matrix(packets);

  std::mt19937_64 rng_serial(7);
  const summarize::KMeansResult serial =
      summarize::kmeans(x, 64, rng_serial, {});

  runtime::ThreadPool pool(4);
  summarize::KMeansOptions pooled_opts;
  pooled_opts.pool = &pool;
  std::mt19937_64 rng_pooled(7);
  const summarize::KMeansResult pooled =
      summarize::kmeans(x, 64, rng_pooled, pooled_opts);

  EXPECT_EQ(serial.assignment, pooled.assignment);
  EXPECT_EQ(serial.counts, pooled.counts);
  EXPECT_EQ(serial.iterations, pooled.iterations);
  EXPECT_EQ(serial.inertia, pooled.inertia);  // bitwise, not approximate
  ASSERT_EQ(serial.centroids.rows(), pooled.centroids.rows());
  const auto& a = serial.centroids.data();
  const auto& b = pooled.centroids.data();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "centroid element " << i;
  }
}

TEST(ParallelEquivalence, SummarizerProducesIdenticalWireBytesWithPool) {
  summarize::SummarizerConfig cfg;
  cfg.batch_size = 800;
  cfg.min_batch = 200;
  cfg.rank = 10;
  cfg.centroids = 96;
  const auto packets = traffic(800, 9);

  summarize::Summarizer serial(cfg, 1);
  const auto serial_out = serial.summarize(packets);

  auto pool = std::make_shared<runtime::ThreadPool>(8);
  summarize::Summarizer pooled(cfg, 1);
  pooled.set_pool(pool);
  const auto pooled_out = pooled.summarize(packets);

  EXPECT_EQ(serial_out.assignment, pooled_out.assignment);
  EXPECT_EQ(summarize::serialize(serial_out.summary),
            summarize::serialize(pooled_out.summary));
}

std::vector<EpochResult> run_deployment(std::size_t threads) {
  JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.rank = 12;
  cfg.summarizer.centroids = 48;
  cfg.monitor_count = 4;
  cfg.epoch_seconds = 0.04;
  // Strict/loose pair so the case-3 feedback path (serial, order-dependent
  // fetch cache) is exercised under the pool too.
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.tau_c_scale = 1.0;
  cfg.threads = threads;

  JaalController controller(cfg, ruleset());
  trace::BackgroundTraffic bg(trace::trace1_profile(), 11);
  attack::AttackConfig acfg;
  acfg.victim_ip = evaluation_victim_ip();
  acfg.start_time = 0.03;
  acfg.packets_per_second = 5000.0;
  acfg.seed = 3;
  attack::SynFlood flood(acfg);
  trace::TrafficMix mix(bg, {&flood}, 0.10);
  return controller.run(mix, 0.25);
}

TEST(ParallelEquivalence, ControllerAlertsIdenticalAtOneAndEightThreads) {
  const auto serial = run_deployment(1);
  const auto pooled = run_deployment(8);

  ASSERT_EQ(serial.size(), pooled.size());
  std::size_t total_alerts = 0;
  for (std::size_t e = 0; e < serial.size(); ++e) {
    EXPECT_EQ(serial[e].end_time, pooled[e].end_time);
    EXPECT_EQ(serial[e].packets, pooled[e].packets);
    EXPECT_EQ(serial[e].monitors_reporting, pooled[e].monitors_reporting);
    ASSERT_EQ(serial[e].alerts.size(), pooled[e].alerts.size())
        << "epoch " << e;
    for (std::size_t a = 0; a < serial[e].alerts.size(); ++a) {
      const inference::Alert& lhs = serial[e].alerts[a];
      const inference::Alert& rhs = pooled[e].alerts[a];
      EXPECT_EQ(lhs.sid, rhs.sid);
      EXPECT_EQ(lhs.msg, rhs.msg);
      EXPECT_EQ(lhs.matched_packets, rhs.matched_packets);
      EXPECT_EQ(lhs.distributed, rhs.distributed);
      EXPECT_EQ(lhs.via_feedback, rhs.via_feedback);
      EXPECT_EQ(lhs.variance, rhs.variance);  // bitwise
    }
    total_alerts += serial[e].alerts.size();
  }
  // The injected SYN flood must actually fire somewhere, or this test
  // would pass vacuously on empty alert streams.
  EXPECT_GT(total_alerts, 0u);
}

TEST(ParallelEquivalence, ControllerReportsRuntimeStatsOnlyWhenPooled) {
  JaalConfig cfg;
  cfg.summarizer.batch_size = 400;
  cfg.summarizer.min_batch = 150;
  cfg.summarizer.centroids = 32;
  cfg.monitor_count = 2;
  cfg.threads = 1;
  JaalController serial(cfg, ruleset());
  EXPECT_EQ(serial.threads(), 1u);
  EXPECT_FALSE(serial.runtime_stats().has_value());

  cfg.threads = 3;
  JaalController pooled(cfg, ruleset());
  EXPECT_EQ(pooled.threads(), 3u);
  trace::BackgroundTraffic gen(trace::trace1_profile(), 2);
  for (const auto& pkt : trace::take(gen, 900)) pooled.ingest(pkt);
  (void)pooled.close_epoch(1.0);
  const auto stats = pooled.runtime_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->threads, 3u);
  EXPECT_GE(stats->tasks_submitted, cfg.monitor_count);
  // The counters render through core/metrics.
  EXPECT_NE(describe(*stats).find("threads=3"), std::string::npos);
}

}  // namespace
}  // namespace jaal::core
