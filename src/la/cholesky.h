// Cholesky factorization and SPD solves, for the exact Kalman update
// (enkf/kalman.h) and the observation-space EnKF oracle (enkf/reference.h).
// `jitter` retries with a scaled diagonal shift for matrices that are SPD
// only up to roundoff (ensemble covariances are often rank-deficient).
// Both callers factor small matrices, so the loops are plain and serial.
#pragma once

#include "la/matrix.h"

namespace wfire::la {

struct CholeskyResult {
  Matrix L;          // lower-triangular factor, A = L L^T
  int jitter_tries;  // how many diagonal boosts were needed (0 = clean)
};

// Factors SPD matrix A. Throws std::runtime_error if the matrix is not SPD
// even after `max_jitter_tries` diagonal boosts of (10^k * eps * trace/n).
[[nodiscard]] CholeskyResult cholesky(const Matrix& A,
                                      int max_jitter_tries = 3);

// Same, but factors into a caller-owned L (reshaped in place, so a Workspace
// buffer makes repeated factorizations allocation-free). Returns the number
// of jitter tries used.
int cholesky_factor(const Matrix& A, Matrix& L, int max_jitter_tries = 3);

// Solves L L^T x = b in place given the factor.
void cholesky_solve(const Matrix& L, Vector& b);

// Solves L L^T X = B for all columns of B in place (column-oriented
// substitution, one right-hand side after another).
void cholesky_solve_in_place(const Matrix& L, Matrix& B);

// Solves A X = B; returns X (copy of B, then in-place solve).
[[nodiscard]] Matrix cholesky_solve(const Matrix& L, const Matrix& B);

}  // namespace wfire::la
