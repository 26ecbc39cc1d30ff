#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "linalg/soa.hpp"

namespace jaal::linalg {
namespace {

/// One-sided Jacobi on an n x p matrix with n >= p.  Orthogonalizes the
/// columns of a working copy W by plane rotations, accumulating them in V;
/// afterwards W = U * diag(sigma).  The two O(n) inner loops — the Gram
/// dot products and the rotation itself — run through the dispatched SIMD
/// kernels; reductions use the canonical lane order of linalg/simd.hpp so
/// the result is bit-identical at every dispatch level.
SvdResult jacobi_tall(const Matrix& a, const SvdOptions& opts) {
  const std::size_t n = a.rows();
  const std::size_t p = a.cols();

  // Column-major working copy: Jacobi touches column pairs, so keep each
  // column contiguous (and padded for the vector kernels).
  SoaMatrix<double> w = SoaMatrix<double>::from_rows(a);
  Matrix v = Matrix::identity(p);

  int sweeps_used = 0;
  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    ++sweeps_used;
    bool rotated = false;
    for (std::size_t i = 0; i + 1 < p; ++i) {
      for (std::size_t j = i + 1; j < p; ++j) {
        const simd::PairDots dots = simd::pair_dots(w.col(i), w.col(j), n);
        const double alpha = dots.alpha;
        const double beta = dots.beta;
        const double gamma = dots.gamma;
        // Numerically-zero columns (rank deficiency) rotate against noise
        // forever; skip them outright.
        if (alpha < 1e-30 || beta < 1e-30) continue;
        if (std::abs(gamma) <= opts.tolerance * std::sqrt(alpha * beta)) {
          continue;
        }
        rotated = true;
        // Rotation angle that zeroes the off-diagonal of the 2x2 Gram block.
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = std::copysign(
            1.0 / (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double cs = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = cs * t;
        simd::rotate_pair(w.col(i), w.col(j), n, cs, sn);
        for (std::size_t r = 0; r < p; ++r) {
          const double vi = v(r, i);
          v(r, i) = cs * vi - sn * v(r, j);
          v(r, j) = sn * vi + cs * v(r, j);
        }
      }
    }
    if (!rotated) break;
    if (sweep + 1 == opts.max_sweeps) {
      throw std::runtime_error("svd: Jacobi did not converge");
    }
  }

  // Extract sigma = column norms, U = normalized columns; sort descending.
  std::vector<double> sigma(p);
  for (std::size_t c = 0; c < p; ++c) {
    sigma[c] = std::sqrt(simd::dot(w.col(c), w.col(c), n));
  }
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  SvdResult out;
  out.sweeps = sweeps_used;
  out.sigma.resize(p);
  out.u = Matrix(n, p);
  out.v = Matrix(p, p);
  for (std::size_t c = 0; c < p; ++c) {
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

SvdResult svd(const Matrix& a, const SvdOptions& opts) {
  if (a.empty()) throw std::invalid_argument("svd: empty matrix");
  if (a.rows() >= a.cols()) return jacobi_tall(a, opts);
  // Wide matrix: decompose the transpose and swap the factor roles.
  SvdResult t = jacobi_tall(a.transposed(), opts);
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.sigma = std::move(t.sigma);
  out.sweeps = t.sweeps;
  return out;
}

SvdResult truncated_svd(const Matrix& a, std::size_t r, const SvdOptions& opts) {
  if (r == 0) throw std::invalid_argument("truncated_svd: r must be positive");
  SvdResult full = svd(a, opts);
  if (r > full.sigma.size()) {
    throw std::invalid_argument("truncated_svd: r exceeds min(n, p)");
  }
  SvdResult out;
  out.u = full.u.left_cols(r);
  out.v = full.v.left_cols(r);
  out.sigma.assign(full.sigma.begin(),
                   full.sigma.begin() + static_cast<std::ptrdiff_t>(r));
  out.sweeps = full.sweeps;
  return out;
}

}  // namespace jaal::linalg
