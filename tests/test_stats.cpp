#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

namespace jaal::linalg {
namespace {

TEST(Stats, MeanBasics) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, VarianceBasics) {
  const double v[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(variance(v), 4.0);  // classic textbook example
  const double single[] = {42.0};
  EXPECT_DOUBLE_EQ(variance(single), 0.0);
}

TEST(Stats, VarianceOfConstantIsZero) {
  const std::vector<double> v(100, 3.14);
  EXPECT_NEAR(variance(v), 0.0, 1e-24);  // float residue only
}

TEST(Stats, WeightedVarianceMatchesExpansion) {
  const double values[] = {2.0, 4.0, 9.0};
  const std::uint64_t weights[] = {2, 3, 1};
  // Expanded multiset {2,2,4,4,4,9}.
  const double expanded[] = {2, 2, 4, 4, 4, 9};
  EXPECT_NEAR(weighted_variance(values, weights), variance(expanded), 1e-12);
}

TEST(Stats, WeightedSizeMismatchThrows) {
  const double values[] = {1.0};
  const std::uint64_t weights[] = {1, 2};
  EXPECT_THROW((void)weighted_variance(values, weights), std::invalid_argument);
}

TEST(Stats, WeightedVarianceAllZeroWeights) {
  const double values[] = {1.0, 2.0};
  const std::uint64_t weights[] = {0, 0};
  EXPECT_DOUBLE_EQ(weighted_variance(values, weights), 0.0);
}

TEST(RunningStats, MatchesBatchComputation) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> unit(-5.0, 5.0);
  std::vector<double> values;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = unit(rng);
    values.push_back(x);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 1000u);
  EXPECT_NEAR(rs.mean(), mean(values), 1e-10);
  EXPECT_NEAR(rs.variance(), variance(values), 1e-9);
}

TEST(RunningStats, WeightedAddMatchesRepeatedAdd) {
  RunningStats weighted, repeated;
  weighted.add(3.0, 5);
  weighted.add(7.0, 2);
  for (int i = 0; i < 5; ++i) repeated.add(3.0);
  for (int i = 0; i < 2; ++i) repeated.add(7.0);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);
}

TEST(RunningStats, ZeroWeightIgnored) {
  RunningStats rs;
  rs.add(5.0, 0);
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, FewerThanTwoSamplesHaveZeroVariance) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(1.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 1.0);  // population variance of {1,3}
}

}  // namespace
}  // namespace jaal::linalg
