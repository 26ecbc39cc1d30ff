#include "inference/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>

namespace jaal::inference {
namespace {

using packet::FieldIndex;

/// Aggregate with two centroid populations: `near` rows exactly matching a
/// SYN-to-port-80 question and `far` rows matching nothing.
AggregatedSummary two_population_aggregate(std::size_t near, std::size_t far,
                                           std::uint64_t count_per_row) {
  AggregatedSummary agg;
  agg.centroids = linalg::Matrix(near + far, packet::kFieldCount);
  for (std::size_t i = 0; i < near + far; ++i) {
    auto row = agg.centroids.row(i);
    if (i < near) {
      row[packet::index(FieldIndex::kTcpDstPort)] = 80.0 / 65535.0;
      row[packet::index(FieldIndex::kTcpFlags)] = 2.0 / 63.0;
    } else {
      row[packet::index(FieldIndex::kTcpDstPort)] = 0.9;
      row[packet::index(FieldIndex::kTcpFlags)] = 16.0 / 63.0;
    }
    agg.counts.push_back(count_per_row);
    agg.origin.push_back(0);
    agg.local_index.push_back(i);
  }
  return agg;
}

rules::Question syn80_question(std::uint64_t tau_c) {
  rules::Question q;
  q.q.fill(rules::kWildcard);
  q.q[packet::index(FieldIndex::kTcpDstPort)] = 80.0 / 65535.0;
  q.q[packet::index(FieldIndex::kTcpFlags)] = 2.0 / 63.0;
  q.tau_c = tau_c;
  q.sid = 1;
  return q;
}

TEST(Similarity, MatchesOnlyNearCentroids) {
  const auto agg = two_population_aggregate(3, 5, 10);
  const auto res = estimate_similarity(syn80_question(1), agg, 0.01);
  EXPECT_TRUE(res.alert);
  EXPECT_EQ(res.matched_rows, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(res.matched_count, 30u);
}

TEST(Similarity, TauCGatesAlert) {
  const auto agg = two_population_aggregate(2, 2, 10);
  EXPECT_TRUE(estimate_similarity(syn80_question(20), agg, 0.01).alert);
  EXPECT_FALSE(estimate_similarity(syn80_question(21), agg, 0.01).alert);
}

TEST(Similarity, TauCOverride) {
  const auto agg = two_population_aggregate(1, 1, 10);
  const auto q = syn80_question(100);  // question says 100...
  EXPECT_TRUE(estimate_similarity(q, agg, 0.01, 5).alert);  // ...override 5
}

TEST(Similarity, LargeTauDMatchesEverything) {
  const auto agg = two_population_aggregate(2, 6, 1);
  const auto res = estimate_similarity(syn80_question(1), agg, 1.0);
  EXPECT_EQ(res.matched_rows.size(), 8u);
}

TEST(Similarity, ZeroTauDRequiresExactMatch) {
  const auto agg = two_population_aggregate(2, 6, 1);
  const auto res = estimate_similarity(syn80_question(1), agg, 0.0);
  EXPECT_EQ(res.matched_rows.size(), 2u);
}

TEST(Similarity, MatchedSetsNestAcrossThresholds) {
  // The feedback loop's case-4 impossibility rests on this property.
  const auto agg = two_population_aggregate(4, 4, 2);
  const auto strict = estimate_similarity(syn80_question(1), agg, 0.05);
  const auto loose = estimate_similarity(syn80_question(1), agg, 0.30);
  for (std::size_t row : strict.matched_rows) {
    EXPECT_TRUE(std::find(loose.matched_rows.begin(), loose.matched_rows.end(),
                          row) != loose.matched_rows.end());
  }
  EXPECT_GE(loose.matched_count, strict.matched_count);
}

TEST(Similarity, EmptyAggregateNeverAlerts) {
  AggregatedSummary agg;
  const auto res = estimate_similarity(syn80_question(1), agg, 1.0);
  EXPECT_FALSE(res.alert);
  EXPECT_TRUE(res.matched_rows.empty());
}

/// The per-threshold scan over Question::distance that Algorithm 1 ran
/// before matching scored each row once: the reference the one scoring
/// loop must reproduce bit for bit.
SimilarityResult reference_scan(const rules::Question& q,
                                const AggregatedSummary& agg, double tau_d,
                                std::uint64_t tau_c) {
  SimilarityResult res;
  for (std::size_t i = 0; i < agg.rows(); ++i) {
    const double d = q.distance(agg.centroids.row(i));
    if (d <= tau_d) {
      res.matched_count += agg.counts[i];
      res.matched_rows.push_back(i);
      res.matched_distances.push_back(d);
    }
  }
  res.alert = res.matched_count >= tau_c;
  return res;
}

void expect_same(const SimilarityResult& got, const SimilarityResult& want) {
  EXPECT_EQ(got.alert, want.alert);
  EXPECT_EQ(got.matched_count, want.matched_count);
  EXPECT_EQ(got.matched_rows, want.matched_rows);
  ASSERT_EQ(got.matched_distances.size(), want.matched_distances.size());
  for (std::size_t i = 0; i < got.matched_distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.matched_distances[i]),
              std::bit_cast<std::uint64_t>(want.matched_distances[i]));
  }
}

TEST(Similarity, SinglePassMatchesPerThresholdScan) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(20);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 60; ++trial) {
    // Random rows, a few poisoned with NaN and +-inf cells.
    const std::size_t rows = 1 + rng() % 300;
    AggregatedSummary agg;
    agg.centroids = linalg::Matrix(rows, packet::kFieldCount);
    for (double& v : agg.centroids.data()) {
      const std::uint64_t pick = rng() % 200;
      v = pick == 0 ? kNaN : pick == 1 ? kInf : pick == 2 ? -kInf : unit(rng);
    }
    // Duplicated rows make distances tie exactly across rows.
    for (std::size_t k = 0; k < rows / 8; ++k) {
      const auto src = agg.centroids.row(rng() % rows);
      const std::vector<double> copy(src.begin(), src.end());
      std::copy(copy.begin(), copy.end(),
                agg.centroids.row(rng() % rows).begin());
    }
    for (std::size_t i = 0; i < rows; ++i) {
      agg.counts.push_back(1 + rng() % 50);
      agg.origin.push_back(0);
      agg.local_index.push_back(i);
    }
    // Random pinned fields; every tenth question is all-wildcard.
    rules::Question q;
    q.q.fill(rules::kWildcard);
    if (trial % 10 != 0) {
      for (double& v : q.q) {
        if (rng() % 4 == 0) v = unit(rng);
      }
    }
    const std::uint64_t tau_c = 1 + rng() % 2000;
    // Thresholds tie exactly with row distances, coincide, are +inf, or
    // come reversed (each threshold is tested on its own).
    const double d_a = q.distance(agg.centroids.row(rng() % rows));
    const double d_b = q.distance(agg.centroids.row(rng() % rows));
    const std::vector<std::pair<double, double>> pairs = {
        {std::min(d_a, d_b), std::max(d_a, d_b)},
        {std::max(d_a, d_b), std::min(d_a, d_b)},
        {d_a, d_a},
        {d_b, kInf},
        {0.0, kInf},
        {0.1, 0.3},
    };
    for (const auto& [tau_d1, tau_d2] : pairs) {
      if (std::isnan(tau_d1) || std::isnan(tau_d2)) continue;
      SCOPED_TRACE(testing::Message() << "trial " << trial << " tau_d1 "
                                      << tau_d1 << " tau_d2 " << tau_d2);
      const SimilarityResult strict = reference_scan(q, agg, tau_d1, tau_c);
      const SimilarityResult loose = reference_scan(q, agg, tau_d2, tau_c);
      const QuestionMatch both = match_question(q, agg, tau_d1, tau_d2, tau_c);
      expect_same(both.strict, strict);
      expect_same(both.loose, loose);
      expect_same(estimate_similarity(q, agg, tau_d1, tau_c), strict);
      expect_same(estimate_similarity(q, agg, tau_d2, tau_c), loose);
    }
  }
}

TEST(Similarity, NarrowRowsMatchNothing) {
  // Rows narrower than the field space cannot be scored, whichever entry
  // point is asked; a distance over 18 fields would read past the rows.
  AggregatedSummary agg;
  agg.centroids = linalg::Matrix(3, 12);
  agg.counts = {100, 100, 100};
  agg.origin = {0, 0, 0};
  agg.local_index = {0, 1, 2};
  const auto inf = std::numeric_limits<double>::infinity();
  const auto res = estimate_similarity(syn80_question(1), agg, inf);
  EXPECT_FALSE(res.alert);
  EXPECT_TRUE(res.matched_rows.empty());
  const QuestionMatch both = match_question(syn80_question(1), agg, inf, inf, 1);
  EXPECT_FALSE(both.strict.alert || both.loose.alert);
  EXPECT_TRUE(both.strict.matched_rows.empty());
  EXPECT_TRUE(both.loose.matched_rows.empty());
}

}  // namespace
}  // namespace jaal::inference
