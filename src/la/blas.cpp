#include "la/blas.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace wfire::la {

void axpy(double alpha, const Vector& x, Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double dot(const Vector& x, const Vector& y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

double nrm2(const Vector& x) { return std::sqrt(dot(x, x)); }

void gemv(double alpha, const Matrix& A, const Vector& x, double beta,
          Vector& y) {
  if (static_cast<int>(x.size()) != A.cols() ||
      static_cast<int>(y.size()) != A.rows())
    throw std::invalid_argument("gemv: size mismatch");
  for (double& v : y) v *= beta;
  // Column-major: accumulate column contributions for unit-stride access.
  for (int j = 0; j < A.cols(); ++j) {
    const double xj = alpha * x[j];
    const auto col = A.col(j);
    for (int i = 0; i < A.rows(); ++i) y[i] += col[i] * xj;
  }
}

void gemv_t(double alpha, const Matrix& A, const Vector& x, double beta,
            Vector& y) {
  if (static_cast<int>(x.size()) != A.rows() ||
      static_cast<int>(y.size()) != A.cols())
    throw std::invalid_argument("gemv_t: size mismatch");
  for (int j = 0; j < A.cols(); ++j) {
    const auto col = A.col(j);
    double s = 0;
    for (int i = 0; i < A.rows(); ++i) s += col[i] * x[i];
    y[j] = beta * y[j] + alpha * s;
  }
}

namespace {

// Element accessor honoring the transpose flag (reference path only; the
// blocked path reads packed buffers instead).
inline double at(const Matrix& M, bool trans, int i, int j) {
  return trans ? M(j, i) : M(i, j);
}

// --- reference kernels (the original naive loops) ---

// `scale`, when non-null, weights the contraction dimension: the kernel
// computes op(A) diag(scale) op(B) (the fused-scaling variants; null means
// plain gemm/syrk).
void gemm_reference(bool transA, bool transB, double alpha, const Matrix& A,
                    const Matrix& B, double beta, Matrix& C, int m, int n,
                    int k, const double* scale) {
  constexpr int kBlock = 64;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j0 = 0; j0 < n; j0 += kBlock) {
    const int j1 = std::min(j0 + kBlock, n);
    for (int i0 = 0; i0 < m; i0 += kBlock) {
      const int i1 = std::min(i0 + kBlock, m);
      for (int j = j0; j < j1; ++j)
        for (int i = i0; i < i1; ++i) C(i, j) *= beta;
      for (int p0 = 0; p0 < k; p0 += kBlock) {
        const int p1 = std::min(p0 + kBlock, k);
        for (int j = j0; j < j1; ++j) {
          for (int p = p0; p < p1; ++p) {
            double bpj = alpha * at(B, transB, p, j);
            if (scale) bpj *= scale[p];
            if (bpj == 0.0) continue;
            for (int i = i0; i < i1; ++i) C(i, j) += at(A, transA, i, p) * bpj;
          }
        }
      }
    }
  }
}

void syrk_reference(bool transA, double alpha, const Matrix& A, double beta,
                    Matrix& C, int m, int k, const double* scale) {
  for (int j = 0; j < m; ++j) {
    for (int i = j; i < m; ++i) {
      double s = 0;
      for (int p = 0; p < k; ++p) {
        const double w = scale ? scale[p] : 1.0;
        s += at(A, transA, i, p) * at(A, transA, j, p) * w;
      }
      C(i, j) = beta * C(i, j) + alpha * s;
    }
  }
  for (int j = 1; j < m; ++j)
    for (int i = 0; i < j; ++i) C(i, j) = C(j, i);
}

void ger_reference(double alpha, const Vector& x, const Vector& y, Matrix& A) {
  for (int j = 0; j < A.cols(); ++j) {
    const double yj = alpha * y[j];
    for (int i = 0; i < A.rows(); ++i) A(i, j) += x[i] * yj;
  }
}

// --- blocked kernels ---
//
// Classic three-level panel scheme (after GotoBLAS): B panels of KC x NC and
// A panels of MC x KC are packed into contiguous scratch so the micro-kernel
// streams unit-stride regardless of the transpose flags, four C columns are
// kept live per pass for register reuse, and the MC tile-row loop is the
// OpenMP dimension. Scratch buffers are thread_local so repeated calls are
// allocation-free in steady state.

// Packs op(A)(i0:i0+mb, p0:p0+kb) column-major into dst (mb x kb). When
// `scale` is non-null, packed column p is multiplied by scale[p0 + p] — the
// pack-time per-column scale hook: a diagonal weighting of the contraction
// dimension rides along with the copy the pack already makes.
void pack_a(const Matrix& A, bool trans, int i0, int p0, int mb, int kb,
            const double* scale, double* dst) {
  const double* src = A.data();
  const std::size_t lda = static_cast<std::size_t>(A.rows());
  if (!trans) {
    for (int p = 0; p < kb; ++p) {
      const double* col = src + (p0 + p) * lda + i0;
      double* d = dst + static_cast<std::size_t>(p) * mb;
      if (scale) {
        const double w = scale[p0 + p];
        for (int i = 0; i < mb; ++i) d[i] = col[i] * w;
      } else {
        std::memcpy(d, col, sizeof(double) * mb);
      }
    }
  } else {
    // op(A)(i, p) = A(p, i): walk source columns (i) with unit stride in p.
    for (int i = 0; i < mb; ++i) {
      const double* col = src + (static_cast<std::size_t>(i0) + i) * lda + p0;
      if (scale) {
        for (int p = 0; p < kb; ++p)
          dst[static_cast<std::size_t>(p) * mb + i] = col[p] * scale[p0 + p];
      } else {
        for (int p = 0; p < kb; ++p)
          dst[static_cast<std::size_t>(p) * mb + i] = col[p];
      }
    }
  }
}

// Packs op(B)(p0:p0+kb, j0:j0+nb) column-major into dst (kb x nb).
void pack_b(const Matrix& B, bool trans, int p0, int j0, int kb, int nb,
            double* dst) {
  const double* src = B.data();
  const std::size_t ldb = static_cast<std::size_t>(B.rows());
  if (!trans) {
    for (int j = 0; j < nb; ++j)
      std::memcpy(dst + static_cast<std::size_t>(j) * kb,
                  src + (static_cast<std::size_t>(j0) + j) * ldb + p0,
                  sizeof(double) * kb);
  } else {
    // op(B)(p, j) = B(j, p): walk source columns (p) with unit stride in j.
    for (int p = 0; p < kb; ++p) {
      const double* col = src + (static_cast<std::size_t>(p0) + p) * ldb + j0;
      for (int j = 0; j < nb; ++j) dst[static_cast<std::size_t>(j) * kb + p] = col[j];
    }
  }
}

// C(0:mb, 0:nb) += alpha * Ap * Bp with Ap (mb x kb) and Bp (kb x nb) packed
// column-major; C points at the tile origin with leading dimension ldc.
void micro_kernel(int mb, int nb, int kb, double alpha, const double* Ap,
                  const double* Bp, double* C, std::size_t ldc) {
  int j = 0;
  for (; j + 4 <= nb; j += 4) {
    double* c0 = C + static_cast<std::size_t>(j + 0) * ldc;
    double* c1 = C + static_cast<std::size_t>(j + 1) * ldc;
    double* c2 = C + static_cast<std::size_t>(j + 2) * ldc;
    double* c3 = C + static_cast<std::size_t>(j + 3) * ldc;
    const double* b0 = Bp + static_cast<std::size_t>(j + 0) * kb;
    const double* b1 = Bp + static_cast<std::size_t>(j + 1) * kb;
    const double* b2 = Bp + static_cast<std::size_t>(j + 2) * kb;
    const double* b3 = Bp + static_cast<std::size_t>(j + 3) * kb;
    for (int p = 0; p < kb; ++p) {
      const double* ap = Ap + static_cast<std::size_t>(p) * mb;
      const double v0 = alpha * b0[p];
      const double v1 = alpha * b1[p];
      const double v2 = alpha * b2[p];
      const double v3 = alpha * b3[p];
      for (int i = 0; i < mb; ++i) {
        const double a = ap[i];
        c0[i] += a * v0;
        c1[i] += a * v1;
        c2[i] += a * v2;
        c3[i] += a * v3;
      }
    }
  }
  for (; j < nb; ++j) {
    double* cj = C + static_cast<std::size_t>(j) * ldc;
    const double* bj = Bp + static_cast<std::size_t>(j) * kb;
    for (int p = 0; p < kb; ++p) {
      const double v = alpha * bj[p];
      if (v == 0.0) continue;
      const double* ap = Ap + static_cast<std::size_t>(p) * mb;
      for (int i = 0; i < mb; ++i) cj[i] += ap[i] * v;
    }
  }
}

void scale_tile(double beta, double* C, std::size_t ldc, int mb, int nb) {
  if (beta == 1.0) return;
  for (int j = 0; j < nb; ++j) {
    double* cj = C + static_cast<std::size_t>(j) * ldc;
    if (beta == 0.0)
      std::memset(cj, 0, sizeof(double) * mb);
    else
      for (int i = 0; i < mb; ++i) cj[i] *= beta;
  }
}

void gemm_blocked(bool transA, bool transB, double alpha, const Matrix& A,
                  const Matrix& B, double beta, Matrix& C, int m, int n,
                  int k, const double* scale) {
  const int nb = block_size();
  const int MC = 2 * nb;
  const int KC = std::min(4 * nb, 512);
  const int NC = std::max(4 * nb, 256);
  double* Cd = C.data();
  const std::size_t ldc = static_cast<std::size_t>(m);

  if (k == 0 || alpha == 0.0) {
    scale_tile(beta, Cd, ldc, m, n);
    return;
  }

  // The packed-B panel is written by the calling thread and read by every
  // worker, so it must be shared across the parallel region — capture the
  // raw pointer, NOT the thread_local vector (each worker would otherwise
  // dereference its own, empty instance). The A panels are per-worker.
  static thread_local std::vector<double> bp_buf;
  bp_buf.resize(static_cast<std::size_t>(KC) * NC);
  double* const Bp = bp_buf.data();

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      pack_b(B, transB, pc, jc, kc, nc, Bp);
      const double tile_beta = pc == 0 ? beta : 1.0;
      const int n_ic = (m + MC - 1) / MC;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (n_ic > 1))
      for (int ib = 0; ib < n_ic; ++ib) {
        const int ic = ib * MC;
        const int mc = std::min(MC, m - ic);
        static thread_local std::vector<double> ap_buf;
        ap_buf.resize(static_cast<std::size_t>(MC) * KC);
        pack_a(A, transA, ic, pc, mc, kc, scale, ap_buf.data());
        double* Ct = Cd + static_cast<std::size_t>(jc) * ldc + ic;
        scale_tile(tile_beta, Ct, ldc, mc, nc);
        micro_kernel(mc, nc, kc, alpha, ap_buf.data(), Bp, Ct, ldc);
      }
    }
  }
}

void syrk_blocked(bool transA, double alpha, const Matrix& A, double beta,
                  Matrix& C, int m, int k, const double* scale) {
  const int nb = block_size();
  const int KC = std::min(4 * nb, 512);
  double* Cd = C.data();
  const std::size_t ldc = static_cast<std::size_t>(m);

  if (k == 0 || alpha == 0.0) {
    scale_tile(beta, Cd, ldc, m, m);
    return;
  }

  // Panel of op(A) columns: P(i, p) = op(A)(i, pc + p), m x kc column-major.
  // As in gemm_blocked: packed by the calling thread, read by all workers,
  // so the parallel region must use the shared raw pointer, not the
  // thread_local vector itself.
  static thread_local std::vector<double> panel;
  panel.resize(static_cast<std::size_t>(m) * KC);
  double* const P = panel.data();

  // Lower-triangle tile list, reused across the pc loop.
  std::vector<std::pair<int, int>> tiles;
  for (int j0 = 0; j0 < m; j0 += nb)
    for (int i0 = j0; i0 < m; i0 += nb) tiles.emplace_back(i0, j0);
  const int ntiles = static_cast<int>(tiles.size());

  for (int pc = 0; pc < k; pc += KC) {
    const int kc = std::min(KC, k - pc);
    // The panel stays unscaled; the weight enters once per contraction
    // column through `v` below (scaling the pack would apply it twice).
    pack_a(A, transA, 0, pc, m, kc, nullptr, P);
    const double tile_beta = pc == 0 ? beta : 1.0;
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic) if (ntiles > 1))
    for (int t = 0; t < ntiles; ++t) {
      const auto [i0, j0] = tiles[t];
      const int mb = std::min(nb, m - i0);
      const int nbj = std::min(nb, m - j0);
      const bool diag = i0 == j0;
      for (int j = 0; j < nbj; ++j) {
        double* cj = Cd + (static_cast<std::size_t>(j0) + j) * ldc + i0;
        const int istart = diag ? j : 0;  // lower triangle only
        if (tile_beta != 1.0)
          for (int i = istart; i < mb; ++i)
            cj[i] = tile_beta == 0.0 ? 0.0 : cj[i] * tile_beta;
        for (int p = 0; p < kc; ++p) {
          const double* col = P + static_cast<std::size_t>(p) * m;
          double v = alpha * col[j0 + j];
          if (scale) v *= scale[pc + p];
          if (v == 0.0) continue;
          const double* a = col + i0;
          for (int i = istart; i < mb; ++i) cj[i] += a[i] * v;
        }
      }
    }
  }
  // Mirror the strictly-upper triangle from the lower one.
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (m > 256))
  for (int j = 1; j < m; ++j)
    for (int i = 0; i < j; ++i)
      Cd[static_cast<std::size_t>(j) * ldc + i] =
          Cd[static_cast<std::size_t>(i) * ldc + j];
}

void ger_blocked(double alpha, const Vector& x, const Vector& y, Matrix& A) {
  const int m = A.rows(), n = A.cols();
  double* Ad = A.data();
  const double* xd = x.data();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) \
                 if (static_cast<long>(m) * n > 65536))
  for (int j = 0; j < n; ++j) {
    const double yj = alpha * y[j];
    if (yj == 0.0) continue;
    double* cj = Ad + static_cast<std::size_t>(j) * m;
    for (int i = 0; i < m; ++i) cj[i] += xd[i] * yj;
  }
}

}  // namespace

namespace {

void gemm_dispatch(bool transA, bool transB, double alpha, const Matrix& A,
                   const Matrix& B, double beta, Matrix& C,
                   const double* scale) {
  const int m = transA ? A.cols() : A.rows();
  const int k = transA ? A.rows() : A.cols();
  const int kb = transB ? B.cols() : B.rows();
  const int n = transB ? B.rows() : B.cols();
  if (k != kb || C.rows() != m || C.cols() != n)
    throw std::invalid_argument("gemm: size mismatch");
  if (m == 0 || n == 0) return;
  if (backend() == Backend::kReference)
    gemm_reference(transA, transB, alpha, A, B, beta, C, m, n, k, scale);
  else
    gemm_blocked(transA, transB, alpha, A, B, beta, C, m, n, k, scale);
}

void syrk_dispatch(bool transA, double alpha, const Matrix& A, double beta,
                   Matrix& C, const double* scale) {
  const int m = transA ? A.cols() : A.rows();
  const int k = transA ? A.rows() : A.cols();
  if (C.rows() != m || C.cols() != m)
    throw std::invalid_argument("syrk: size mismatch");
  if (m == 0) return;
  if (backend() == Backend::kReference)
    syrk_reference(transA, alpha, A, beta, C, m, k, scale);
  else
    syrk_blocked(transA, alpha, A, beta, C, m, k, scale);
}

}  // namespace

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C) {
  gemm_dispatch(transA, transB, alpha, A, B, beta, C, nullptr);
}

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C) {
  const int k = transA ? A.rows() : A.cols();
  if (static_cast<int>(w.size()) != k)
    throw std::invalid_argument("gemm_scaled: weight size mismatch");
  gemm_dispatch(transA, transB, alpha, A, B, beta, C, w.data());
}

void syrk(bool transA, double alpha, const Matrix& A, double beta, Matrix& C) {
  syrk_dispatch(transA, alpha, A, beta, C, nullptr);
}

void syrk_scaled(bool transA, double alpha, const Matrix& A, const Vector& w,
                 double beta, Matrix& C) {
  const int k = transA ? A.rows() : A.cols();
  if (static_cast<int>(w.size()) != k)
    throw std::invalid_argument("syrk_scaled: weight size mismatch");
  syrk_dispatch(transA, alpha, A, beta, C, w.data());
}

void ger(double alpha, const Vector& x, const Vector& y, Matrix& A) {
  if (static_cast<int>(x.size()) != A.rows() ||
      static_cast<int>(y.size()) != A.cols())
    throw std::invalid_argument("ger: size mismatch");
  if (backend() == Backend::kReference)
    ger_reference(alpha, x, y, A);
  else
    ger_blocked(alpha, x, y, A);
}

Matrix matmul(const Matrix& A, const Matrix& B, bool transA, bool transB) {
  const int m = transA ? A.cols() : A.rows();
  const int n = transB ? B.rows() : B.cols();
  Matrix C(m, n, 0.0);
  gemm(transA, transB, 1.0, A, B, 0.0, C);
  return C;
}

double frobenius_norm(const Matrix& A) {
  double s = 0;
  for (int j = 0; j < A.cols(); ++j)
    for (int i = 0; i < A.rows(); ++i) s += A(i, j) * A(i, j);
  return std::sqrt(s);
}

double max_abs_diff(const Matrix& A, const Matrix& B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    throw std::invalid_argument("max_abs_diff: size mismatch");
  double m = 0;
  for (int j = 0; j < A.cols(); ++j)
    for (int i = 0; i < A.rows(); ++i)
      m = std::max(m, std::abs(A(i, j) - B(i, j)));
  return m;
}

}  // namespace wfire::la
