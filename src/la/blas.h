// BLAS-like kernels on Vector/Matrix. The matrix kernels (gemm, syrk, ger)
// dispatch on la::backend(): the blocked path packs panels into contiguous
// buffers and threads the tile loop with OpenMP; the reference path is the
// original naive triple loop kept as ground truth (see la/backend.h).
#pragma once

#include "la/backend.h"
#include "la/matrix.h"

namespace wfire::la {

// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);

[[nodiscard]] double dot(const Vector& x, const Vector& y);
[[nodiscard]] double nrm2(const Vector& x);

// y = alpha * A * x + beta * y  (A: m x n, x: n, y: m)
void gemv(double alpha, const Matrix& A, const Vector& x, double beta,
          Vector& y);

// y = alpha * A^T * x + beta * y
void gemv_t(double alpha, const Matrix& A, const Vector& x, double beta,
            Vector& y);

// C = alpha * op(A) * op(B) + beta * C with op in {identity, transpose}.
void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C);

// C = alpha * op(A) * diag(w) * op(B) + beta * C, w of length k (the
// contraction dimension). The blocked path applies w while packing the A
// panel (the pack-time per-column scale hook — see la/backend.h), so a
// diagonal scaling of the contraction costs nothing beyond the pack it
// already pays; the EnKF uses it to fold the R^{-1/2} observation weighting
// into its products instead of materializing scaled copies.
void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C);

// Symmetric rank-k update: C = alpha * op(A) * op(A)^T + beta * C with C
// m x m. Only one triangle is computed (half the flops of the equivalent
// gemm) and mirrored, so when beta != 0 the incoming C must be symmetric.
void syrk(bool transA, double alpha, const Matrix& A, double beta, Matrix& C);

// C = alpha * op(A) * diag(w) * op(A)^T + beta * C, w of length k. Same
// triangle/mirror contract as syrk; the weight is applied once per
// contraction column from the unscaled packed panel (not by scaling the
// panel itself, which would square it).
void syrk_scaled(bool transA, double alpha, const Matrix& A, const Vector& w,
                 double beta, Matrix& C);

// Rank-1 update A += alpha * x * y^T  (A: m x n, x: m, y: n).
void ger(double alpha, const Vector& x, const Vector& y, Matrix& A);

// Convenience: returns op(A)*op(B).
[[nodiscard]] Matrix matmul(const Matrix& A, const Matrix& B,
                            bool transA = false, bool transB = false);

// Frobenius norm and max-abs difference (test helpers).
[[nodiscard]] double frobenius_norm(const Matrix& A);
[[nodiscard]] double max_abs_diff(const Matrix& A, const Matrix& B);

}  // namespace wfire::la
