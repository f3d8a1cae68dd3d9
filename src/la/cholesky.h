// Cholesky factorization and SPD solves. The EnKF analysis solves
// (H A (H A)^T/(N-1) + R) x = b with an SPD system matrix; Cholesky is the
// workhorse. `jitter` retries with a scaled diagonal shift for matrices that
// are SPD only up to roundoff (ensemble covariances are often rank-deficient).
//
// The factorization is blocked right-looking: panel factor, column-oriented
// trsm, and a tiled, OpenMP-threaded trailing update. The original unblocked
// loop is its oracle, la::reference::cholesky_factor.
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
// substitution, OpenMP-parallel across the right-hand sides).
void cholesky_solve_in_place(const Matrix& L, Matrix& B);

// Solves A X = B; returns X (copy of B, then in-place solve).
[[nodiscard]] Matrix cholesky_solve(const Matrix& L, const Matrix& B);

namespace detail {

// The jitter-retry loop shared by cholesky_factor and its reference oracle:
// tries try_factor(A, L), then A plus growing diagonal shifts. Returns the
// number of shifts used; throws std::runtime_error once they run out.
using TryFactor = bool (*)(const Matrix& A, Matrix& L);
int factor_with_jitter(const Matrix& A, Matrix& L, int max_jitter_tries,
                       TryFactor try_factor);

}  // namespace detail

}  // namespace wfire::la
