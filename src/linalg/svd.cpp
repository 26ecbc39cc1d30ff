#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/simd.hpp"
#include "linalg/soa.hpp"

namespace jaal::linalg {
namespace {

/// A pair is orthogonal enough when |<a,b>| <= kTolerance * |a| |b|.
constexpr double kTolerance = 1e-12;
/// Hard cap on Jacobi sweeps; never reached on [0,1]^{n x p} batches.
constexpr int kMaxSweeps = 60;
/// Squared column norms below this are numerically zero (see settled()).
constexpr double kZeroNorm2 = 1e-30;
/// The Gram path keeps rank r only when lambda_r >= kGramFloor * lambda_1,
/// i.e. sigma_r / sigma_1 >= 2^-10: its relative error ~ eps (sigma_1 /
/// sigma_r)^2 then stays <= 2^-32, 8 bits below the float32 wire's 2^-24
/// (DESIGN.md "Gram-path truncated SVD").
constexpr double kGramFloor = 0x1p-20;

/// Rotation (cs, sn) that zeroes the off-diagonal of the 2x2 Gram block
/// [[alpha, gamma], [gamma, beta]] of columns (a, b) when applied as
/// (a, b) <- (cs*a - sn*b, sn*a + cs*b); t = sn / cs.
struct Rotation {
  double cs;
  double sn;
  double t;
};

Rotation rotation(double alpha, double beta, double gamma) {
  const double zeta = (beta - alpha) / (2.0 * gamma);
  const double t = std::copysign(
      1.0 / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
  const double cs = 1.0 / std::sqrt(1.0 + t * t);
  return {cs, cs * t, t};
}

/// True when columns with Gram block [[alpha, gamma], [gamma, beta]] are
/// orthogonal to working precision.
bool orthogonal(double alpha, double beta, double gamma) {
  return std::abs(gamma) <= kTolerance * std::sqrt(std::abs(alpha * beta));
}

/// orthogonal(), or one column is numerically zero (rank deficiency): such
/// a column rotates against noise forever, so its pairs are skipped.
bool settled(double alpha, double beta, double gamma) {
  return alpha < kZeroNorm2 || beta < kZeroNorm2 ||
         orthogonal(alpha, beta, gamma);
}

/// Applies the rotation to columns i and j of the row-major p x p v.
void rotate_cols(Matrix& v, std::size_t i, std::size_t j, const Rotation& q) {
  for (std::size_t r = 0; r < v.rows(); ++r) {
    const double vi = v(r, i);
    v(r, i) = q.cs * vi - q.sn * v(r, j);
    v(r, j) = q.sn * vi + q.cs * v(r, j);
  }
}

/// Applies the rotation to the n-entry columns a and b of the SoA batch.
void rotate_cols(double* a, double* b, std::size_t n, const Rotation& q) {
  for (std::size_t r = 0; r < n; ++r) {
    const double ar = a[r];
    a[r] = q.cs * ar - q.sn * b[r];
    b[r] = q.sn * ar + q.cs * b[r];
  }
}

/// Indices of `values` sorted descending, ties in index order.
std::vector<std::size_t> descending(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return values[x] > values[y];
  });
  return order;
}

/// One-sided Jacobi on an n x p SoA matrix with n >= p, keeping the top
/// `keep` triplets.  Orthogonalizes the columns of W by plane rotations,
/// accumulating them in V; afterwards W = U * diag(sigma).  Each pair's
/// Gram block is three simd::dot sums in the canonical lane order and the
/// rotation is scalar, so the result is bit-identical at every dispatch
/// level.
SvdResult jacobi_tall(SoaMatrix<double> w, std::size_t keep) {
  const std::size_t n = w.rows();
  const std::size_t p = w.cols();
  Matrix v = Matrix::identity(p);

  int sweeps_used = 0;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    ++sweeps_used;
    bool rotated = false;
    for (std::size_t i = 0; i + 1 < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        double* ci = w.col(i);
        double* cj = w.col(j);
        const double alpha = simd::dot(ci, ci, n);
        const double beta = simd::dot(cj, cj, n);
        const double gamma = simd::dot(ci, cj, n);
        if (settled(alpha, beta, gamma)) continue;
        rotated = true;
        const Rotation q = rotation(alpha, beta, gamma);
        rotate_cols(ci, cj, n, q);
        rotate_cols(v, i, j, q);
      }
    }
    if (!rotated) break;
    if (sweep + 1 == kMaxSweeps) {
      throw std::runtime_error("svd: Jacobi did not converge");
    }
  }

  // sigma = column norms, U = normalized columns, sorted descending.
  std::vector<double> sigma(p);
  for (std::size_t c = 0; c < p; ++c) {
    sigma[c] = std::sqrt(simd::dot(w.col(c), w.col(c), n));
  }
  const std::vector<std::size_t> order = descending(sigma);

  SvdResult out;
  out.sweeps = sweeps_used;
  out.sigma.resize(keep);
  out.u = Matrix(n, keep);
  out.v = Matrix(p, keep);
  for (std::size_t c = 0; c < keep; ++c) {
    const std::size_t src = order[c];
    out.sigma[c] = sigma[src];
    // A numerically zero singular value gets a zero U column; reconstruction
    // is unaffected because it is scaled by sigma = 0.
    const double inv = sigma[src] > 0.0 ? 1.0 / sigma[src] : 0.0;
    const double* col = w.col(src);
    for (std::size_t r = 0; r < n; ++r) out.u(r, c) = col[r] * inv;
    for (std::size_t r = 0; r < p; ++r) out.v(r, c) = v(r, src);
  }
  return out;
}

/// One-sided Jacobi of any shape, keeping the top `keep` <= min(n, p)
/// triplets.  A wide matrix decomposes its transpose and swaps the factors.
SvdResult one_sided(const Matrix& a, std::size_t keep) {
  if (a.rows() >= a.cols()) {
    return jacobi_tall(SoaMatrix<double>::from_rows(a), keep);
  }
  SvdResult t = jacobi_tall(SoaMatrix<double>::from_rows(a.transposed()), keep);
  std::swap(t.u, t.v);
  return t;
}

/// Rank-r SVD of a tall SoA matrix through its p x p Gram matrix
/// G = A^T A: a cyclic Jacobi eigensolve of G gives V and lambda = sigma^2,
/// and U_r = A V_r Sigma_r^{-1}.  Returns nullopt (the caller runs the
/// one-sided Jacobi instead) when lambda_1 <= 0, lambda_r < kGramFloor *
/// lambda_1 or the eigensolve hits the sweep cap.  G's entries are
/// simd::dot sums in the canonical lane order and the rest is scalar, so the
/// result is bit-identical at every dispatch level.
std::optional<SvdResult> gram_truncated(const SoaMatrix<double>& w,
                                        std::size_t r) {
  const std::size_t n = w.rows();
  const std::size_t p = w.cols();
  Matrix g(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      g(i, j) = g(j, i) = simd::dot(w.col(i), w.col(j), n);
    }
  }

  // The same sweep as jacobi_tall, with each pair's Gram block read from G
  // and the rotation applied to G's rows and columns instead of to A's.
  // No pair is skipped as numerically zero: a null direction of A has an
  // eigenvalue of rounding size, possibly negative, and skipping it would
  // leave its coupling to the kept directions in V_r.
  Matrix v = Matrix::identity(p);
  int sweeps_used = 0;
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    ++sweeps_used;
    converged = true;
    for (std::size_t i = 0; i + 1 < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        const double alpha = g(i, i);
        const double beta = g(j, j);
        const double gamma = g(i, j);
        if (orthogonal(alpha, beta, gamma)) continue;
        converged = false;
        const Rotation q = rotation(alpha, beta, gamma);
        for (std::size_t k = 0; k < p; ++k) {
          if (k == i || k == j) continue;
          const double gki = g(k, i);
          const double gkj = g(k, j);
          g(k, i) = g(i, k) = q.cs * gki - q.sn * gkj;
          g(k, j) = g(j, k) = q.sn * gki + q.cs * gkj;
        }
        g(i, i) = alpha - q.t * gamma;
        g(j, j) = beta + q.t * gamma;
        g(i, j) = g(j, i) = 0.0;
        rotate_cols(v, i, j, q);
      }
    }
  }
  if (!converged) return std::nullopt;

  std::vector<double> lambda(p);
  for (std::size_t c = 0; c < p; ++c) lambda[c] = g(c, c);
  const std::vector<std::size_t> order = descending(lambda);
  const double top = lambda[order[0]];
  // Negated so that a NaN eigenvalue also gives up.
  if (!(top > 0.0) || !(lambda[order[r - 1]] >= kGramFloor * top)) {
    return std::nullopt;
  }

  SvdResult out;
  out.sweeps = sweeps_used;
  out.sigma.resize(r);
  out.u = Matrix(n, r);
  out.v = Matrix(p, r);
  std::vector<double> acc(n);
  for (std::size_t c = 0; c < r; ++c) {
    const std::size_t src = order[c];
    out.sigma[c] = std::sqrt(lambda[src]);
    for (std::size_t k = 0; k < p; ++k) out.v(k, c) = v(k, src);
    // Column c of A V_r, accumulated over A's columns in field order.
    const double* first = w.col(0);
    const double v0 = v(0, src);
    for (std::size_t i = 0; i < n; ++i) acc[i] = first[i] * v0;
    for (std::size_t k = 1; k < p; ++k) {
      const double* col = w.col(k);
      const double vk = v(k, src);
      for (std::size_t i = 0; i < n; ++i) acc[i] += col[i] * vk;
    }
    const double inv = 1.0 / out.sigma[c];
    for (std::size_t i = 0; i < n; ++i) out.u(i, c) = acc[i] * inv;
  }
  return out;
}

}  // namespace

Matrix SvdResult::reconstruct() const { return reconstruct_rank(sigma.size()); }

Matrix SvdResult::reconstruct_rank(std::size_t r) const {
  if (r > sigma.size()) {
    throw std::invalid_argument("SvdResult::reconstruct_rank: r too large");
  }
  Matrix out(u.rows(), v.rows());
  for (std::size_t i = 0; i < u.rows(); ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      const double scaled = u(i, k) * sigma[k];
      if (scaled == 0.0) continue;
      for (std::size_t j = 0; j < v.rows(); ++j) {
        out(i, j) += scaled * v(j, k);
      }
    }
  }
  return out;
}

std::size_t SvdResult::rank_for_energy(double fraction) const {
  double total = 0.0;
  for (double s : sigma) total += s * s;
  if (total == 0.0) return 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    acc += sigma[i] * sigma[i];
    if (acc >= fraction * total) return i + 1;
  }
  return sigma.size();
}

SvdResult svd(const Matrix& a) {
  if (a.empty()) throw std::invalid_argument("svd: empty matrix");
  return one_sided(a, std::min(a.rows(), a.cols()));
}

SvdResult truncated_svd(const Matrix& a, std::size_t r) {
  if (r == 0) throw std::invalid_argument("truncated_svd: r must be positive");
  if (r > std::min(a.rows(), a.cols())) {
    throw std::invalid_argument("truncated_svd: r exceeds min(n, p)");
  }
  if (a.rows() < a.cols()) return one_sided(a, r);
  SoaMatrix<double> w = SoaMatrix<double>::from_rows(a);
  if (std::optional<SvdResult> gram = gram_truncated(w, r)) {
    return std::move(*gram);
  }
  return jacobi_tall(std::move(w), r);
}

}  // namespace jaal::linalg
