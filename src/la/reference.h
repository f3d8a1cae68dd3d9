// Reference oracles for the dense LA kernels: the original naive loops the
// blocked kernels in la/blas.h and la/cholesky.h are tested against. Same
// signatures and results (to rounding) as the production kernels, no
// blocking and no threads. Only tests and benches include this header; no
// production code path reaches these functions. Shapes must conform (the
// production entry points check them; the oracles trust their callers).
#pragma once

#include "la/matrix.h"

namespace wfire::la::reference {

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C);

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C);

void syrk(bool transA, double alpha, const Matrix& A, double beta, Matrix& C);

void syrk_scaled(bool transA, double alpha, const Matrix& A, const Vector& w,
                 double beta, Matrix& C);

void ger(double alpha, const Vector& x, const Vector& y, Matrix& A);

// Unblocked factorization with the same jitter retries as
// la::cholesky_factor; returns the number of diagonal boosts used.
int cholesky_factor(const Matrix& A, Matrix& L, int max_jitter_tries = 3);

}  // namespace wfire::la::reference
