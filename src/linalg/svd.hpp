// Singular value decomposition via one-sided Jacobi rotations.
//
// Jaal decomposes batches of normalized packet headers (n x p, p = 18) to
// reduce the fields mode (§4.2 of the paper).  One-sided Jacobi is a good
// fit: it is simple, numerically robust, and fast when p is small even if n
// is large (cost is O(n p^2) per sweep).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace jaal::linalg {

/// Thin SVD of an n x p matrix A = U * diag(sigma) * V^T where U is n x m,
/// V is p x m, m = min(n, p) and sigma is sorted descending.
struct SvdResult {
  Matrix u;                    ///< Left singular vectors, n x m.
  std::vector<double> sigma;   ///< Singular values, descending, size m.
  Matrix v;                    ///< Right singular vectors, p x m.
  int sweeps = 0;              ///< Jacobi sweeps spent (telemetry).

  /// Reconstruct U * diag(sigma) * V^T.
  [[nodiscard]] Matrix reconstruct() const;

  /// Reconstruct the optimal rank-r approximation (Eckart-Young).
  /// Throws std::invalid_argument if r > sigma.size().
  [[nodiscard]] Matrix reconstruct_rank(std::size_t r) const;

  /// Smallest rank whose retained singular values carry at least `fraction`
  /// of the total energy (sum of squared singular values).  §4.2 uses 0.90.
  [[nodiscard]] std::size_t rank_for_energy(double fraction) const;
};

struct SvdOptions {
  double tolerance = 1e-12;   ///< Column-orthogonality stopping threshold.
  int max_sweeps = 60;        ///< Hard cap on Jacobi sweeps.
};

/// Computes the thin SVD of `a`.  Throws std::invalid_argument on an empty
/// matrix and std::runtime_error if Jacobi fails to converge (never observed
/// for matrices in [0,1]^{n x p}; the cap is a safety net).
[[nodiscard]] SvdResult svd(const Matrix& a, const SvdOptions& opts = {});

/// Truncated SVD keeping the top-r singular triplets: U_r (n x r),
/// sigma_r (r), V_r (p x r).  Throws if r == 0 or r > min(n, p).
[[nodiscard]] SvdResult truncated_svd(const Matrix& a, std::size_t r,
                                      const SvdOptions& opts = {});

}  // namespace jaal::linalg
