#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>

namespace jaal::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Matrix m(rows, cols);
  for (double& v : m.data()) v = unit(rng);
  return m;
}

/// Checks that the columns of m are orthonormal (up to numerically-zero
/// columns, which carry sigma = 0).
void expect_orthonormal_columns(const Matrix& m,
                                std::span<const double> sigma,
                                double tol = 1e-9) {
  for (std::size_t i = 0; i < m.cols(); ++i) {
    if (sigma[i] == 0.0) continue;
    for (std::size_t j = i; j < m.cols(); ++j) {
      if (sigma[j] == 0.0) continue;
      double dot = 0.0;
      for (std::size_t r = 0; r < m.rows(); ++r) dot += m(r, i) * m(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, tol) << "columns " << i << "," << j;
    }
  }
}

TEST(Svd, EmptyMatrixThrows) {
  EXPECT_THROW((void)svd(Matrix{}), std::invalid_argument);
}

TEST(Svd, DiagonalMatrixRecoversSingularValues) {
  const double diag[] = {5.0, 3.0, 1.0};
  const SvdResult r = svd(Matrix::diagonal(diag));
  ASSERT_EQ(r.sigma.size(), 3u);
  EXPECT_NEAR(r.sigma[0], 5.0, 1e-12);
  EXPECT_NEAR(r.sigma[1], 3.0, 1e-12);
  EXPECT_NEAR(r.sigma[2], 1.0, 1e-12);
}

TEST(Svd, SingularValuesSortedDescending) {
  const SvdResult r = svd(random_matrix(40, 10, 1));
  for (std::size_t i = 1; i < r.sigma.size(); ++i) {
    EXPECT_GE(r.sigma[i - 1], r.sigma[i]);
  }
}

TEST(Svd, ReconstructionMatchesOriginalTall) {
  const Matrix a = random_matrix(30, 8, 2);
  const SvdResult r = svd(a);
  EXPECT_LT(a.max_abs_diff(r.reconstruct()), 1e-9);
}

TEST(Svd, ReconstructionMatchesOriginalWide) {
  const Matrix a = random_matrix(6, 20, 3);
  const SvdResult r = svd(a);
  ASSERT_EQ(r.u.rows(), 6u);
  ASSERT_EQ(r.v.rows(), 20u);
  EXPECT_LT(a.max_abs_diff(r.reconstruct()), 1e-9);
}

TEST(Svd, FactorsAreOrthonormal) {
  const Matrix a = random_matrix(25, 7, 4);
  const SvdResult r = svd(a);
  expect_orthonormal_columns(r.u, r.sigma);
  expect_orthonormal_columns(r.v, r.sigma);
}

TEST(Svd, RankDeficientMatrixHasZeroSingularValues) {
  // Rank-1 matrix: outer product.
  Matrix a(10, 5);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      a(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
    }
  }
  const SvdResult r = svd(a);
  EXPECT_GT(r.sigma[0], 0.0);
  for (std::size_t i = 1; i < r.sigma.size(); ++i) {
    EXPECT_NEAR(r.sigma[i], 0.0, 1e-9);
  }
}

TEST(Svd, FrobeniusNormPreserved) {
  // ||A||_F^2 == sum sigma_i^2.
  const Matrix a = random_matrix(15, 6, 5);
  const SvdResult r = svd(a);
  double sum_sq = 0.0;
  for (double s : r.sigma) sum_sq += s * s;
  EXPECT_NEAR(std::sqrt(sum_sq), a.frobenius_norm(), 1e-9);
}

TEST(Svd, TruncatedIsBestLowRankApproximation) {
  // Eckart–Young: rank-r SVD reconstruction beats any other rank-r guess we
  // can easily produce; here we at least verify error decreases with r and
  // equals the tail singular values' energy.
  const Matrix a = random_matrix(20, 8, 6);
  const SvdResult full = svd(a);
  double prev_err = 1e300;
  for (std::size_t r = 1; r <= 8; ++r) {
    const Matrix approx = full.reconstruct_rank(r);
    const double err = (a - approx).frobenius_norm();
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
    double tail = 0.0;
    for (std::size_t i = r; i < full.sigma.size(); ++i) {
      tail += full.sigma[i] * full.sigma[i];
    }
    EXPECT_NEAR(err, std::sqrt(tail), 1e-9) << "rank " << r;
  }
}

TEST(Svd, TruncatedSvdShapes) {
  const Matrix a = random_matrix(50, 18, 7);
  const SvdResult r = truncated_svd(a, 12);
  EXPECT_EQ(r.u.rows(), 50u);
  EXPECT_EQ(r.u.cols(), 12u);
  EXPECT_EQ(r.sigma.size(), 12u);
  EXPECT_EQ(r.v.rows(), 18u);
  EXPECT_EQ(r.v.cols(), 12u);
}

TEST(Svd, TruncatedSvdValidatesRank) {
  const Matrix a = random_matrix(10, 4, 8);
  EXPECT_THROW((void)truncated_svd(a, 0), std::invalid_argument);
  EXPECT_THROW((void)truncated_svd(a, 5), std::invalid_argument);
}

TEST(Svd, RankForEnergy) {
  const double diag[] = {10.0, 1.0, 0.1};  // energies 100, 1, 0.01
  const SvdResult r = svd(Matrix::diagonal(diag));
  EXPECT_EQ(r.rank_for_energy(0.90), 1u);
  EXPECT_EQ(r.rank_for_energy(0.999), 2u);
  EXPECT_EQ(r.rank_for_energy(1.0), 3u);
}

TEST(Svd, RankForEnergyZeroMatrix) {
  const SvdResult r = svd(Matrix(4, 4) + Matrix(4, 4));
  EXPECT_EQ(r.rank_for_energy(0.9), 0u);
}

TEST(Svd, SingleColumn) {
  Matrix a(5, 1);
  for (std::size_t i = 0; i < 5; ++i) a(i, 0) = 2.0;
  const SvdResult r = svd(a);
  EXPECT_NEAR(r.sigma[0], 2.0 * std::sqrt(5.0), 1e-12);
  EXPECT_LT(a.max_abs_diff(r.reconstruct()), 1e-12);
}

TEST(Svd, SingleRow) {
  Matrix a(1, 4);
  a(0, 0) = 3.0;
  a(0, 1) = 4.0;
  const SvdResult r = svd(a);
  EXPECT_NEAR(r.sigma[0], 5.0, 1e-12);
  EXPECT_LT(a.max_abs_diff(r.reconstruct()), 1e-12);
}

}  // namespace
}  // namespace jaal::linalg
