// Singular value decomposition for Jaal's n x p header batches (p = 18).
//
// Jaal decomposes batches of normalized packet headers to reduce the fields
// mode (§4.2 of the paper).  Two algorithms serve it:
//  * svd() is one-sided Jacobi: plane rotations orthogonalize the columns
//    of A, O(n p^2) per sweep.  It resolves singular values down to ~1e-17
//    and handles any rank, so it serves the full SVD and every fallback.
//  * truncated_svd() on a tall matrix (n >= p) takes the Gram path: one
//    O(n p^2) pass forms G = A^T A, a cyclic Jacobi eigensolve of the p x p
//    G gives V and sigma = sqrt(lambda), and only the r columns of
//    U_r = A V_r Sigma_r^{-1} are formed.  Squaring A squares its condition
//    number: the relative error is ~ eps (sigma_1 / sigma_r)^2.  So the
//    path gives up when lambda_r < 2^-20 lambda_1 (sigma_r / sigma_1 <
//    2^-10, error <= 2^-32, 8 bits below the float32 wire's 2^-24) or
//    lambda_1 <= 0, and truncated_svd() returns svd(a) cut to r columns,
//    bit for bit.  Wide inputs (n < p) take svd() too.  DESIGN.md
//    "Gram-path truncated SVD" derives the bound.
// Both paths are bit-identical at every SIMD dispatch level: simd::dot,
// whose canonical lane order is the same at every level, is the only
// dispatched kernel either one calls.
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

/// Computes the thin SVD of `a`.  Throws std::invalid_argument on an empty
/// matrix and std::runtime_error if Jacobi fails to converge (never observed
/// for matrices in [0,1]^{n x p}; the cap is a safety net).
[[nodiscard]] SvdResult svd(const Matrix& a);

/// Truncated SVD keeping the top-r singular triplets: U_r (n x r),
/// sigma_r (r), V_r (p x r), by the Gram path when it is accurate enough
/// and by svd() otherwise (see above).  `sweeps` counts the sweeps of
/// whichever Jacobi ran.  Throws if r == 0 or r > min(n, p).
[[nodiscard]] SvdResult truncated_svd(const Matrix& a, std::size_t r);

}  // namespace jaal::linalg
