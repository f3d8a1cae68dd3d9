// One-sided Jacobi SVD, accurate for the small and skinny matrices wfire
// produces. No production path calls it: it backs the EnKF's SVD analysis
// oracle (enkf/reference.h) and the factorization comparison in
// bench_sub_qr.
#pragma once

#include "la/matrix.h"

namespace wfire::la {

struct SvdResult {
  Matrix U;      // m x r with orthonormal columns
  Vector sigma;  // r singular values, descending
  Matrix V;      // n x r with orthonormal columns, A = U diag(sigma) V^T
};

// Computes the thin SVD of A (any shape); r = min(m, n).
[[nodiscard]] SvdResult svd(const Matrix& A, int max_sweeps = 60);

}  // namespace wfire::la
