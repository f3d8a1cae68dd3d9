// BLAS-like kernels on Vector/Matrix. The matrix product (gemm) is
// cache-blocked: it packs panels into contiguous buffers and threads the
// tile loop with OpenMP. The naive triple loop it is tested against lives in
// la/reference.h, which only tests and benches include.
//
// The gemm pack step also exposes a per-column scale hook (gemm_scaled
// below): a diagonal weight along the contraction dimension is applied while
// panels are packed, so diagonal row/column scalings (the EnKF's R^{-1/2}
// observation weighting) fuse into the product instead of costing separate
// m x N sweeps.
#pragma once

#include "la/matrix.h"

namespace wfire::la {

// Tile edge of the blocked gemm: default 64.
[[nodiscard]] int block_size();

// Moves the tile edge for its lifetime (clamped to [8, 1024]), so tests
// reach tile boundaries at small shapes. Not for concurrent use with
// kernels on other threads.
class ScopedBlockSize {
 public:
  explicit ScopedBlockSize(int nb);
  ~ScopedBlockSize();
  ScopedBlockSize(const ScopedBlockSize&) = delete;
  ScopedBlockSize& operator=(const ScopedBlockSize&) = delete;

 private:
  int prev_;
};

// C = alpha * op(A) * op(B) + beta * C with op in {identity, transpose}.
void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C);

// C = alpha * op(A) * diag(w) * op(B) + beta * C, w of length k (the
// contraction dimension). w is applied while packing the A panel, so the
// scaling costs nothing beyond the pack the product already pays.
void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C);

// Convenience: returns op(A)*op(B).
[[nodiscard]] Matrix matmul(const Matrix& A, const Matrix& B,
                            bool transA = false, bool transB = false);

// Frobenius norm and max-abs difference (test helpers).
[[nodiscard]] double frobenius_norm(const Matrix& A);
[[nodiscard]] double max_abs_diff(const Matrix& A, const Matrix& B);

}  // namespace wfire::la
