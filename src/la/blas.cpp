#include "la/blas.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace wfire::la {

namespace {

// Relaxed atomic: tests move the tile edge between cases, never during a
// kernel call, but pool workers from earlier cases may still be parked.
std::atomic<int> g_block_size{64};

}  // namespace

int block_size() { return g_block_size.load(std::memory_order_relaxed); }

ScopedBlockSize::ScopedBlockSize(int nb) : prev_(block_size()) {
  g_block_size.store(std::clamp(nb, 8, 1024), std::memory_order_relaxed);
}

ScopedBlockSize::~ScopedBlockSize() {
  g_block_size.store(prev_, std::memory_order_relaxed);
}

namespace {

// --- blocked kernels ---
//
// Classic three-level panel scheme (after GotoBLAS): B panels of KC x NC and
// A panels of MC x KC are packed into contiguous scratch so the micro-kernel
// streams unit-stride regardless of the transpose flags, four C columns are
// kept live per pass for register reuse, and the MC tile-row loop is the
// OpenMP dimension (the output columns when there is one tile row). Scratch
// buffers are thread_local so repeated calls are allocation-free in steady
// state.

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

// Multiply-adds below which a one-tile-row product stays on one thread:
// waking the team costs more than a product this small (25 x 25 x 420).
constexpr double kColumnSplitWork = 262144;

// The calling thread's A-panel and C-columns scratch, kept across calls.
double* a_panel(std::size_t size) {
  static thread_local std::vector<double> buf;
  buf.resize(size);
  return buf.data();
}
double* c_panel(std::size_t size) {
  static thread_local std::vector<double> buf;
  buf.resize(size);
  return buf.data();
}

int max_threads() {
#if defined(WFIRE_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
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
                  const Matrix& B, double beta, Matrix& C,
                  const double* scale) {
  const int m = transA ? A.cols() : A.rows();
  const int k = transA ? A.rows() : A.cols();
  const int kb = transB ? B.cols() : B.rows();
  const int n = transB ? B.rows() : B.cols();
  if (k != kb || C.rows() != m || C.cols() != n)
    throw std::invalid_argument("gemm: size mismatch");
  if (m == 0 || n == 0) return;
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

  // The packed-B panel is shared across the parallel region (the calling
  // thread packs it for the tile-row split; each range packs its own columns
  // of it for the column split) — capture the raw pointer, NOT the
  // thread_local vector (each worker would otherwise dereference its own,
  // empty instance). The A panels are per-worker.
  static thread_local std::vector<double> bp_buf;
  bp_buf.resize(static_cast<std::size_t>(KC) * NC);
  double* const Bp = bp_buf.data();
  const int n_ic = (m + MC - 1) / MC;

  // One macro tile row (such as the EnKF's N x N coefficient product over
  // all m observations) leaves the tile-row loop nothing to split, so the
  // output columns are split instead: one contiguous range per thread, cut
  // at the micro-kernel's groups of 4 with the leftover columns in the last
  // range. Every column then takes the same kernel branch as in an unsplit
  // call (the leftover branch skips zero B entries, the grouped one does
  // not), so the bits do not depend on the split. Each range packs its own
  // A panels and its own columns of the shared B panel, and accumulates its
  // columns of C in a private copy: C's columns are shorter than a few
  // cache lines, and ranges updating a shared line on every multiply-add
  // would run slower than one thread. All of it is one region.
  const int groups = n / 4;
  const int n_chunks =
      n_ic == 1 && static_cast<double>(m) * n * k >= kColumnSplitWork
          ? std::min(groups, max_threads())
          : 1;
  if (n_chunks > 1) {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int t = 0; t < n_chunks; ++t) {
      const int j0 = 4 * (t * groups / n_chunks);
      const int j1 = t + 1 == n_chunks ? n : 4 * ((t + 1) * groups / n_chunks);
      double* const Ap = a_panel(static_cast<std::size_t>(MC) * KC);
      double* const Cp = c_panel(static_cast<std::size_t>(m) * (j1 - j0));
      for (int jc = 0; jc < n; jc += NC) {
        const int a = std::max(j0, jc), b = std::min(j1, jc + NC);
        if (a >= b) continue;
        double* const Bt = Bp + static_cast<std::size_t>(a - jc) * KC;
        double* const Ct = Cd + static_cast<std::size_t>(a) * ldc;
        const std::size_t c_len = ldc * (b - a);
        std::memcpy(Cp, Ct, sizeof(double) * c_len);
        for (int pc = 0; pc < k; pc += KC) {
          const int kc = std::min(KC, k - pc);
          pack_a(A, transA, 0, pc, m, kc, scale, Ap);
          pack_b(B, transB, pc, a, kc, b - a, Bt);
          scale_tile(pc == 0 ? beta : 1.0, Cp, ldc, m, b - a);
          micro_kernel(m, b - a, kc, alpha, Ap, Bt, Cp, ldc);
        }
        std::memcpy(Ct, Cp, sizeof(double) * c_len);
      }
    }
    return;
  }

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      pack_b(B, transB, pc, jc, kc, nc, Bp);
      const double tile_beta = pc == 0 ? beta : 1.0;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (n_ic > 1))
      for (int ib = 0; ib < n_ic; ++ib) {
        const int ic = ib * MC;
        const int mc = std::min(MC, m - ic);
        double* const Ap = a_panel(static_cast<std::size_t>(MC) * KC);
        pack_a(A, transA, ic, pc, mc, kc, scale, Ap);
        double* Ct = Cd + static_cast<std::size_t>(jc) * ldc + ic;
        scale_tile(tile_beta, Ct, ldc, mc, nc);
        micro_kernel(mc, nc, kc, alpha, Ap, Bp, Ct, ldc);
      }
    }
  }
}

}  // namespace

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C) {
  gemm_blocked(transA, transB, alpha, A, B, beta, C, nullptr);
}

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C) {
  const int k = transA ? A.rows() : A.cols();
  if (static_cast<int>(w.size()) != k)
    throw std::invalid_argument("gemm_scaled: weight size mismatch");
  gemm_blocked(transA, transB, alpha, A, B, beta, C, w.data());
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
