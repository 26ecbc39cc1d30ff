#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/simd.hpp"
#include "payload/term_matrix.hpp"
#include "simd_levels.hpp"
#include "summarize/normalize.hpp"
#include "trace/background.hpp"

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

/// Checks a truncated SVD against one-sided Jacobi's factors (svd(a)): sigma
/// within sigma_tol * sigma_1, each U and V column within vec_tol up to sign.
void expect_matches_one_sided(const SvdResult& got, const SvdResult& want,
                              std::size_t r, double sigma_tol, double vec_tol,
                              const std::string& label) {
  ASSERT_EQ(got.sigma.size(), r) << label;
  ASSERT_EQ(got.u.cols(), r) << label;
  ASSERT_EQ(got.v.cols(), r) << label;
  for (std::size_t c = 0; c < r; ++c) {
    EXPECT_NEAR(got.sigma[c], want.sigma[c], sigma_tol * want.sigma[0])
        << label << " sigma " << c;
    const double sign = got.v(0, c) * want.v(0, c) < 0.0 ? -1.0 : 1.0;
    double u_err = 0.0;
    double v_err = 0.0;
    for (std::size_t i = 0; i < got.u.rows(); ++i) {
      u_err = std::max(u_err, std::abs(got.u(i, c) - sign * want.u(i, c)));
    }
    for (std::size_t i = 0; i < got.v.rows(); ++i) {
      v_err = std::max(v_err, std::abs(got.v(i, c) - sign * want.v(i, c)));
    }
    EXPECT_LE(u_err, vec_tol) << label << " U column " << c;
    EXPECT_LE(v_err, vec_tol) << label << " V column " << c;
  }
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// True when `got` is svd(a) cut to its first r columns, bit for bit.
bool is_one_sided_cut(const Matrix& a, const SvdResult& got) {
  const SvdResult full = svd(a);
  const std::size_t r = got.sigma.size();
  const std::vector<double> sigma(full.sigma.begin(),
                                  full.sigma.begin() + static_cast<std::ptrdiff_t>(r));
  return same_bits(got.sigma, sigma) &&
         same_bits(got.u.data(), full.u.left_cols(r).data()) &&
         same_bits(got.v.data(), full.v.left_cols(r).data());
}

TEST(Svd, GramTruncationMatchesOneSidedJacobi) {
  // Normalized trace-1 header batches at the pipeline's sizes and ranks.
  for (const std::size_t n : {500u, 2000u}) {
    trace::BackgroundTraffic gen(trace::trace1_profile(), 11 + n);
    const Matrix a = summarize::to_normalized_matrix(trace::take(gen, n));
    const SvdResult full = svd(a);
    for (const std::size_t r : {10u, 12u, 15u}) {
      const std::string label =
          "n=" + std::to_string(n) + " r=" + std::to_string(r);
      // Well inside the Gram path's 2^-10 conditioning bound...
      ASSERT_GE(full.sigma[r - 1], 0x1p-10 * full.sigma[0]) << label;
      const SvdResult got = truncated_svd(a, r);
      // ...so the result is the Gram path's, not svd(a)'s bits.
      EXPECT_FALSE(is_one_sided_cut(a, got)) << label;
      expect_matches_one_sided(got, full, r, 1e-12, 1e-10, label);
    }
  }
}

TEST(Svd, IllConditionedTruncationFallsBack) {
  // Rank 3 (a 40 x 3 times 3 x 8 product) truncated to r = 5 > rank.
  const Matrix left = random_matrix(40, 3, 21);
  const Matrix right = random_matrix(3, 8, 22);
  Matrix low_rank(40, 8);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t k = 0; k < 3; ++k) low_rank(i, j) += left(i, k) * right(k, j);
    }
  }
  EXPECT_TRUE(is_one_sided_cut(low_rank, truncated_svd(low_rank, 5)));

  // A payload term matrix: three distinct rows over twelve terms.
  const payload::Vocabulary vocab = payload::default_vocabulary();
  std::vector<std::string> payloads;
  const char* kinds[] = {"GET /index.html", "wget http://a/b.exe",
                         "SSH-2.0-OpenSSH ../../etc"};
  for (std::size_t i = 0; i < 60; ++i) payloads.emplace_back(kinds[i % 3]);
  const Matrix terms = payload::term_frequency_matrix(vocab, payloads);
  EXPECT_TRUE(is_one_sided_cut(terms, truncated_svd(terms, 4)));
}

/// FNV-1a over the bits of sigma, U and V, in that order.
std::uint64_t digest(const SvdResult& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::span<const double> part :
       {std::span<const double>(s.sigma), std::span<const double>(s.u.data()),
        std::span<const double>(s.v.data())}) {
    for (const double x : part) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &x, sizeof bytes);
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

TEST(Svd, OneSidedJacobiBitsArePinned) {
  // One-sided Jacobi's exact output.  Dispatch levels agreeing with each
  // other cannot show that a rewrite of its loops kept the bits; fixed
  // digests can.
  const Matrix tall = random_matrix(2000, 18, 31);
  const Matrix wide = random_matrix(12, 18, 32);  // the transpose branch
  // TruncatedSvdIdenticalAcrossLevels's rank-3 batch, which falls back.
  const Matrix base = random_matrix(37, 9, 4242);
  Matrix deficient(37, 9);
  for (std::size_t i = 0; i < 37; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      deficient(i, j) = base(i % 3, j) * static_cast<double>(1 + i % 5);
    }
  }
  for (const simd::Level level : test::available_levels()) {
    test::ForcedLevel pin(level);
    const std::string name(simd::level_name(level));
    EXPECT_EQ(digest(svd(tall)), 0x33819870b5227033ull) << name;
    EXPECT_EQ(digest(svd(wide)), 0x83ccaef406f8655bull) << name;
    const SvdResult cut = truncated_svd(deficient, 6);
    EXPECT_TRUE(is_one_sided_cut(deficient, cut)) << name;
    EXPECT_EQ(digest(cut), 0x4c966c4d04d0c562ull) << name;
  }
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
