// Reference oracles for the dense LA kernels: the original naive loops the
// blocked gemm kernels in la/blas.h are tested against (same signatures and
// results to rounding, no blocking and no threads), and the matrix-vector
// product of the test-only exact Kalman filter (enkf/kalman.h). Only tests,
// benches and the other test-only oracles include this header; no
// production code path reaches these functions. gemm shapes must conform
// (the production entry points check them; the oracles trust their
// callers); gemv checks its own.
#pragma once

#include "la/matrix.h"

namespace wfire::la::reference {

// y = alpha * A * x + beta * y  (A: m x n, x: n, y: m)
void gemv(double alpha, const Matrix& A, const Vector& x, double beta,
          Vector& y);

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C);

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C);

}  // namespace wfire::la::reference
