#include "la/qr.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wfire::la {

namespace {

// Row-block height of the TSQR split. Shape-only (no thread count, no env)
// so the factorization is bitwise identical for every OMP_NUM_THREADS: the
// tree structure is part of the result, not a scheduling detail. 2n keeps a
// block's reflector chain within the panel's own cache footprint; the 128
// floor keeps blocks from degenerating into tree overhead for tiny n.
int tsqr_block_rows(int n) { return std::max(2 * n, 128); }

// First row of block b when m rows are split into nb blocks as evenly as
// possible (the first m % nb blocks get one extra row; every block has
// >= tsqr_block_rows >= n rows by construction of tsqr_nblocks).
int tsqr_row0(int m, int nb, int b) { return b * (m / nb) + std::min(b, m % nb); }

// Serial Householder factorization of the rows x n block at `a` (column
// stride ld), reflectors scaled to unit diagonal, scalars into beta[0..n).
void factor_block(double* a, int ld, int rows, int n, double* beta) {
  for (int j = 0; j < n; ++j) {
    double* cj = a + static_cast<std::size_t>(j) * ld;
    double norm = 0;
    for (int i = j; i < rows; ++i) norm += cj[i] * cj[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      beta[j] = 0.0;
      continue;
    }
    const double alpha = cj[j] >= 0 ? -norm : norm;
    const double v0 = cj[j] - alpha;
    beta[j] = -v0 / alpha;  // 2 / (v^T v) with v scaled so v[j] = 1
    const double inv_v0 = 1.0 / v0;
    for (int i = j + 1; i < rows; ++i) cj[i] *= inv_v0;
    cj[j] = alpha;
    // Apply the reflector to the trailing columns.
    for (int k = j + 1; k < n; ++k) {
      double* ck = a + static_cast<std::size_t>(k) * ld;
      double s = ck[j];
      for (int i = j + 1; i < rows; ++i) s += cj[i] * ck[i];
      s *= beta[j];
      ck[j] -= s;
      for (int i = j + 1; i < rows; ++i) ck[i] -= s * cj[i];
    }
  }
}

// Copies the upper triangle of the n x n block at `src` (stride lds) into
// `dst` (stride ldd), zero-filling below the diagonal (tree nodes read the
// full 2n x n stack, so stale subdiagonals must not leak through).
void copy_r_block(const double* src, int lds, double* dst, int ldd, int n) {
  for (int j = 0; j < n; ++j) {
    const double* s = src + static_cast<std::size_t>(j) * lds;
    double* d = dst + static_cast<std::size_t>(j) * ldd;
    for (int i = 0; i <= j; ++i) d[i] = s[i];
    for (int i = j + 1; i < n; ++i) d[i] = 0.0;
  }
}

}  // namespace

void qr_factor_in_place(Matrix& A, Vector& beta) {
  const int m = A.rows();
  const int n = A.cols();
  if (m < n) throw std::invalid_argument("qr_factor: requires m >= n");
  beta.resize(static_cast<std::size_t>(n));
  factor_block(A.data(), m, m, n, beta.data());
}

int tsqr_nblocks(int m, int n) {
  const int br = tsqr_block_rows(n);
  return m >= 2 * br ? m / br : 1;
}

void tsqr_factor_r_in_place(Matrix& A, Workspace* ws) {
  const int m = A.rows();
  const int n = A.cols();
  if (m < n) throw std::invalid_argument("tsqr_factor: requires m >= n");
  if (n == 0) return;
  Workspace local;
  Workspace& arena = ws ? *ws : local;
  const int nb = tsqr_nblocks(m, n);
  Vector& lbeta =
      arena.vec("qr.tsqr.lbeta", static_cast<std::size_t>(nb) * n);

  // Leaf stage: factor every row block independently; R_b lands in the top
  // n rows of its block.
  double* Ad = A.data();
  const int ld = m;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (nb > 1))
  for (int b = 0; b < nb; ++b) {
    const int r0 = tsqr_row0(m, nb, b);
    factor_block(Ad + r0, ld, tsqr_row0(m, nb, b + 1) - r0, n,
                 lbeta.data() + static_cast<std::size_t>(b) * n);
  }
  if (nb == 1) return;  // a single leaf already holds R in the top of A

  // Stack the leaf Rs into ping-pong buffers and reduce pairs level by
  // level. Writes go to the other buffer: pair p writes slot p while pair
  // p' reads slots 2p', 2p'+1, which alias in place once p >= 1.
  Matrix& S0 = arena.mat("qr.tsqr.S0", nb * n, n);
  Matrix& S1 = arena.mat("qr.tsqr.S1", ((nb + 1) / 2) * n, n);
  for (int b = 0; b < nb; ++b)
    copy_r_block(Ad + tsqr_row0(m, nb, b), ld,
                 S0.data() + static_cast<std::size_t>(b) * n, S0.rows(), n);
  Matrix& nodebuf = arena.mat("qr.tsqr.node", 2 * n, n * (nb / 2));
  Vector& nbeta =
      arena.vec("qr.tsqr.nbeta", static_cast<std::size_t>(n) * (nb / 2));

  int c = nb;
  Matrix* src = &S0;
  Matrix* dst = &S1;
  while (c > 1) {
    const int pairs = c / 2;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (pairs > 1))
    for (int p = 0; p < pairs; ++p) {
      double* nd = nodebuf.data() + static_cast<std::size_t>(p) * n * (2 * n);
      double* nbp = nbeta.data() + static_cast<std::size_t>(p) * n;
      // Stack [R_2p; R_2p+1] (2n x n, contiguous), factor, write R to slot p.
      const int lds = src->rows();
      for (int j = 0; j < n; ++j) {
        const double* s = src->data() + static_cast<std::size_t>(j) * lds;
        double* d = nd + static_cast<std::size_t>(j) * (2 * n);
        for (int i = 0; i < n; ++i) d[i] = s[2 * p * n + i];
        for (int i = 0; i < n; ++i) d[n + i] = s[(2 * p + 1) * n + i];
      }
      factor_block(nd, 2 * n, 2 * n, n, nbp);
      copy_r_block(nd, 2 * n, dst->data() + static_cast<std::size_t>(p) * n,
                   dst->rows(), n);
    }
    if (c & 1) {  // odd leftover passes through to the next level
      copy_r_block(src->data() + static_cast<std::size_t>(c - 1) * n,
                   src->rows(),
                   dst->data() + static_cast<std::size_t>(pairs) * n,
                   dst->rows(), n);
    }
    c = pairs + (c & 1);
    std::swap(src, dst);
  }

  // Final R into the upper triangle of the top of A.
  for (int j = 0; j < n; ++j) {
    const double* s = src->data() + static_cast<std::size_t>(j) * src->rows();
    double* d = Ad + static_cast<std::size_t>(j) * ld;
    for (int i = 0; i <= j; ++i) d[i] = s[i];
  }
}

void r_solve_in_place(const Matrix& qr, Matrix& B) {
  const int n = qr.cols();
  if (qr.rows() < n || B.rows() != n)
    throw std::invalid_argument("r_solve: size mismatch");
  for (int i = 0; i < n; ++i)
    if (qr(i, i) == 0.0)
      throw std::runtime_error("r_solve: rank-deficient system");
  const int nrhs = B.cols();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (nrhs > 1))
  for (int c = 0; c < nrhs; ++c) {
    auto b = B.col(c);
    for (int i = n - 1; i >= 0; --i) {
      double s = b[i];
      for (int p = i + 1; p < n; ++p) s -= qr(i, p) * b[p];
      b[i] = s / qr(i, i);
    }
  }
}

void rt_solve_in_place(const Matrix& qr, Matrix& B) {
  const int n = qr.cols();
  if (qr.rows() < n || B.rows() != n)
    throw std::invalid_argument("rt_solve: size mismatch");
  for (int i = 0; i < n; ++i)
    if (qr(i, i) == 0.0)
      throw std::runtime_error("rt_solve: rank-deficient system");
  const int nrhs = B.cols();
  const double* Rd = qr.data();
  const std::size_t ld = static_cast<std::size_t>(qr.rows());
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (nrhs > 1))
  for (int c = 0; c < nrhs; ++c) {
    auto b = B.col(c);
    // Column i of R above the diagonal is row i of R^T: contiguous walks.
    for (int i = 0; i < n; ++i) {
      const double* ri = Rd + static_cast<std::size_t>(i) * ld;
      double s = b[i];
      for (int p = 0; p < i; ++p) s -= ri[p] * b[p];
      b[i] = s / ri[i];
    }
  }
}

}  // namespace wfire::la
