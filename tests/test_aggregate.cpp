#include "inference/aggregate.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace jaal::inference {
namespace {

using summarize::CombinedSummary;
using summarize::MonitorSummary;
using summarize::SplitSummary;

CombinedSummary combined(summarize::MonitorId id, std::size_t k,
                         std::size_t p, double fill) {
  CombinedSummary s;
  s.monitor = id;
  s.centroids = linalg::Matrix(k, p);
  for (double& v : s.centroids.data()) v = fill;
  s.counts.assign(k, 10 * (id + 1));
  return s;
}

TEST(Aggregator, ConcatenatesInOrder) {
  Aggregator agg;
  agg.add(MonitorSummary{combined(0, 2, 4, 0.1)});
  agg.add(MonitorSummary{combined(1, 3, 4, 0.2)});
  EXPECT_EQ(agg.summaries_added(), 2u);
  const AggregatedSummary a = agg.take();
  EXPECT_EQ(a.rows(), 5u);
  EXPECT_EQ(a.centroids.cols(), 4u);
  EXPECT_EQ(a.origin[0], 0u);
  EXPECT_EQ(a.origin[4], 1u);
  EXPECT_EQ(a.local_index[0], 0u);
  EXPECT_EQ(a.local_index[2], 0u);  // first row of monitor 1
  EXPECT_EQ(a.local_index[4], 2u);
  // The aggregate holds what monitors ship: float32 scalars.
  EXPECT_EQ(a.centroids(0, 0), static_cast<double>(0.1f));
  EXPECT_EQ(a.centroids(3, 3), static_cast<double>(0.2f));
  EXPECT_EQ(a.counts[0], 10u);
  EXPECT_EQ(a.counts[2], 20u);
}

TEST(Aggregator, ReconstructsSplitSummaries) {
  SplitSummary split;
  split.monitor = 5;
  split.u_centroids = linalg::Matrix{{1.0, 0.0}, {0.0, 1.0}};
  split.sigma = {2.0, 3.0};
  split.vt = linalg::Matrix{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
  split.counts = {4, 6};

  Aggregator agg;
  agg.add(MonitorSummary{split});
  const AggregatedSummary a = agg.take();
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.centroids.cols(), 3u);
  EXPECT_DOUBLE_EQ(a.centroids(0, 0), 2.0);  // u*sigma*vt row 0
  EXPECT_DOUBLE_EQ(a.centroids(1, 1), 3.0);
  EXPECT_EQ(a.origin[0], 5u);
}

TEST(Aggregator, TotalPacketsSumsCounts) {
  Aggregator agg;
  agg.add(MonitorSummary{combined(0, 2, 3, 0.0)});  // counts 10,10
  agg.add(MonitorSummary{combined(2, 1, 3, 0.0)});  // count 30
  EXPECT_EQ(agg.take().total_packets(), 50u);
}

TEST(Aggregator, TakeResetsState) {
  Aggregator agg;
  agg.add(MonitorSummary{combined(0, 2, 3, 0.0)});
  (void)agg.take();
  EXPECT_EQ(agg.summaries_added(), 0u);
  const AggregatedSummary empty = agg.take();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.total_packets(), 0u);
}

TEST(Aggregator, RejectsMixedFieldWidths) {
  Aggregator agg;
  agg.add(MonitorSummary{combined(0, 2, 3, 0.0)});
  EXPECT_THROW(agg.add(MonitorSummary{combined(1, 2, 5, 0.0)}),
               std::invalid_argument);
}

TEST(Aggregator, RejectsBrokenInvariants) {
  CombinedSummary bad = combined(0, 2, 3, 0.0);
  bad.counts.pop_back();
  Aggregator agg;
  EXPECT_THROW(agg.add(MonitorSummary{bad}), std::logic_error);
}

/// Random split summary; some U~ cells are zero (the reconstruction's skip)
/// and some V^T cells are -0.0 (a row built by assignment instead of
/// accumulation onto zero would keep the sign).
SplitSummary random_split(summarize::MonitorId id, std::size_t k,
                          std::size_t r, std::size_t p, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  SplitSummary s;
  s.monitor = id;
  s.u_centroids = linalg::Matrix(k, r);
  for (double& v : s.u_centroids.data()) v = rng() % 5 == 0 ? 0.0 : u(rng);
  for (std::size_t c = 0; c < r; ++c) s.sigma.push_back(1.0 + u(rng));
  s.vt = linalg::Matrix(r, p);
  for (double& v : s.vt.data()) v = rng() % 7 == 0 ? -0.0 : u(rng);
  for (std::size_t i = 0; i < k; ++i) s.counts.push_back(1 + rng() % 90);
  return s;
}

/// What the epoch's aggregate must hold: every summary as shipped
/// (deserialize(serialize(s))) in combined form (split ones through
/// SplitSummary::reconstruct), rows concatenated in order, compared bit for
/// bit.
void expect_aggregate_of(const AggregatedSummary& a,
                         const std::vector<MonitorSummary>& epoch) {
  std::size_t row = 0;
  for (const MonitorSummary& sent : epoch) {
    const MonitorSummary s =
        summarize::deserialize(summarize::serialize(sent));
    const CombinedSummary c =
        std::holds_alternative<CombinedSummary>(s)
            ? std::get<CombinedSummary>(s)
            : std::get<SplitSummary>(s).reconstruct();
    ASSERT_EQ(a.centroids.cols(), c.centroids.cols());
    for (std::size_t i = 0; i < c.centroids.rows(); ++i, ++row) {
      ASSERT_LT(row, a.rows());
      const auto want = c.centroids.row(i);
      const auto got = a.centroids.row(row);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0)
          << "row " << row;
      EXPECT_EQ(a.counts[row], c.counts[i]);
      EXPECT_EQ(a.origin[row], c.monitor);
      EXPECT_EQ(a.local_index[row], i);
    }
  }
  EXPECT_EQ(a.rows(), row);
  EXPECT_EQ(a.centroids.rows(), row);
  if (epoch.empty()) {
    EXPECT_EQ(a.centroids.cols(), 0u);
  }
}

TEST(Aggregator, RecycledTakeMatchesReconstructAcrossEpochs) {
  std::mt19937_64 rng(11);
  constexpr std::size_t p = 18;
  // Epochs that grow, shrink, empty out and mix the two formats.
  const std::vector<std::vector<MonitorSummary>> epochs = {
      {random_split(0, 400, 12, p, rng), combined(1, 50, p, 0.3)},
      {combined(2, 3, p, 0.7)},
      {random_split(3, 10, 4, p, rng), random_split(4, 200, 12, p, rng),
       combined(5, 100, p, 0.1), random_split(6, 5, 1, p, rng)},
      {},
      {random_split(7, 1, 12, p, rng)},
      {random_split(8, 400, 12, p, rng), random_split(9, 400, 12, p, rng)},
  };
  Aggregator recycling;
  Aggregator by_value;
  AggregatedSummary kept;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    SCOPED_TRACE(testing::Message() << "epoch " << e);
    for (const MonitorSummary& s : epochs[e]) {
      recycling.add(s);
      by_value.add(s);
    }
    recycling.take(kept);
    expect_aggregate_of(kept, epochs[e]);
    const AggregatedSummary fresh = by_value.take();
    expect_aggregate_of(fresh, epochs[e]);
    EXPECT_EQ(recycling.summaries_added(), 0u);
  }
}

TEST(Aggregator, SteadyEpochsReuseTheSameBuffers) {
  std::mt19937_64 rng(5);
  const MonitorSummary s = random_split(0, 64, 6, 18, rng);
  Aggregator agg;
  AggregatedSummary kept;
  std::vector<const double*> buffers;
  for (int e = 0; e < 4; ++e) {
    agg.add(s);
    agg.add(s);
    agg.take(kept);
    expect_aggregate_of(kept, {s, s});
    buffers.push_back(kept.centroids.data().data());
  }
  // Two row buffers alternate between the caller and the aggregator.
  EXPECT_EQ(buffers[2], buffers[0]);
  EXPECT_EQ(buffers[3], buffers[1]);
}

TEST(Aggregator, RejectedSummaryLeavesTheEpochIntact) {
  std::mt19937_64 rng(9);
  const MonitorSummary first = random_split(0, 30, 5, 18, rng);
  const MonitorSummary second = combined(1, 7, 18, 0.4);
  Aggregator agg;
  AggregatedSummary kept;
  agg.add(MonitorSummary{combined(9, 4, 18, 0.2)});
  agg.take(kept);  // the buffers now hold a previous epoch
  agg.add(first);
  EXPECT_THROW(agg.add(MonitorSummary{combined(2, 3, 12, 0.0)}),
               std::invalid_argument);
  EXPECT_THROW(agg.add(random_split(3, 6, 2, 12, rng)), std::invalid_argument);
  SplitSummary broken = random_split(4, 6, 2, 18, rng);
  broken.counts.pop_back();
  EXPECT_THROW(agg.add(MonitorSummary{broken}), std::logic_error);
  agg.add(second);
  EXPECT_EQ(agg.summaries_added(), 2u);
  agg.take(kept);
  expect_aggregate_of(kept, {first, second});
}

TEST(Aggregator, ClearDropsPendingSummaries) {
  Aggregator agg;
  agg.add(MonitorSummary{combined(0, 5, 18, 0.5)});
  agg.clear();
  EXPECT_EQ(agg.summaries_added(), 0u);
  // A narrower summary is welcome again: the width went with the epoch.
  agg.add(MonitorSummary{combined(1, 2, 4, 0.5)});
  const AggregatedSummary a = agg.take();
  expect_aggregate_of(a, {MonitorSummary{combined(1, 2, 4, 0.5)}});
}

/// Serialized payloads of `epoch` and their parsed views (the views alias
/// `payloads`, so keep both alive together).
std::vector<summarize::SummaryView> views_of(
    const std::vector<MonitorSummary>& epoch,
    std::vector<std::vector<std::uint8_t>>& payloads) {
  payloads.clear();
  for (const MonitorSummary& s : epoch) {
    payloads.push_back(summarize::serialize(s));
  }
  std::vector<summarize::SummaryView> views;
  for (const auto& p : payloads) views.push_back(summarize::parse_summary(p));
  return views;
}

TEST(Aggregator, BatchedViewsMatchReconstructAtAnyPoolSize) {
  std::mt19937_64 rng(13);
  constexpr std::size_t p = 18;
  const std::vector<std::vector<MonitorSummary>> epochs = {
      {random_split(0, 400, 12, p, rng), combined(1, 50, p, 0.3),
       random_split(2, 7, 3, p, rng)},
      {combined(3, 3, p, 0.7)},
      {},
      {random_split(4, 200, 12, p, rng), combined(5, 0, p, 0.0),
       random_split(6, 5, 1, p, rng), random_split(7, 90, 12, p, rng)},
  };
  const std::vector<std::size_t> pool_sizes = {0, 1, 2, 4};
  for (const std::size_t threads : pool_sizes) {
    SCOPED_TRACE(testing::Message() << "pool " << threads);
    const auto pool = threads == 0
                          ? nullptr
                          : std::make_shared<runtime::ThreadPool>(threads);
    Aggregator agg;
    AggregatedSummary kept;
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      SCOPED_TRACE(testing::Message() << "epoch " << e);
      const auto views = views_of(epochs[e], payloads);
      agg.add(views, pool.get());
      EXPECT_EQ(agg.summaries_added(), epochs[e].size());
      agg.take(kept);
      expect_aggregate_of(kept, epochs[e]);
    }
    // Batches append after single adds, in order.
    agg.add(epochs[1][0]);
    const auto views = views_of(epochs[0], payloads);
    agg.add(views, pool.get());
    agg.take(kept);
    std::vector<MonitorSummary> both = {epochs[1][0]};
    both.insert(both.end(), epochs[0].begin(), epochs[0].end());
    expect_aggregate_of(kept, both);
  }
}

TEST(Aggregator, BatchWithAMismatchedWidthAddsNothing) {
  std::mt19937_64 rng(17);
  const std::vector<MonitorSummary> held = {combined(0, 4, 18, 0.2)};
  Aggregator agg;
  agg.add(held[0]);
  std::vector<std::vector<std::uint8_t>> payloads;
  const auto views =
      views_of({random_split(1, 6, 2, 18, rng), combined(2, 3, 12, 0.1)},
               payloads);
  EXPECT_THROW(agg.add(views, nullptr), std::invalid_argument);
  EXPECT_EQ(agg.summaries_added(), 1u);
  AggregatedSummary kept;
  agg.take(kept);
  expect_aggregate_of(kept, held);
}

}  // namespace
}  // namespace jaal::inference
