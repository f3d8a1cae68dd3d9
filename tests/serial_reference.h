// Serial copies of the blocked gemm and the EnKF analysis as they were
// before their passes went parallel: the gemm's tile-row loop without its
// OpenMP region, and the analysis's serial mean, anomaly, inflation and
// innovation loops with the draws made inside the analysis. The loops are
// kept verbatim, so the bitwise oracle tests (la_backend_test, enkf_test,
// morphing_test) compare the parallel code against the exact arithmetic it
// must reproduce, at every OpenMP width. Test-only; include once per test
// binary.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "enkf/enkf.h"
#include "la/blas.h"
#include "la/matrix.h"
#include "la/qr.h"
#include "la/workspace.h"
#include "util/rng.h"

namespace serial_reference {

using wfire::la::Matrix;
using wfire::la::Vector;

inline void pack_a(const Matrix& A, bool trans, int i0, int p0, int mb, int kb,
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

inline void pack_b(const Matrix& B, bool trans, int p0, int j0, int kb, int nb,
                   double* dst) {
  const double* src = B.data();
  const std::size_t ldb = static_cast<std::size_t>(B.rows());
  if (!trans) {
    for (int j = 0; j < nb; ++j)
      std::memcpy(dst + static_cast<std::size_t>(j) * kb,
                  src + (static_cast<std::size_t>(j0) + j) * ldb + p0,
                  sizeof(double) * kb);
  } else {
    for (int p = 0; p < kb; ++p) {
      const double* col = src + (static_cast<std::size_t>(p0) + p) * ldb + j0;
      for (int j = 0; j < nb; ++j) dst[static_cast<std::size_t>(j) * kb + p] = col[j];
    }
  }
}

inline void micro_kernel(int mb, int nb, int kb, double alpha, const double* Ap,
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

inline void scale_tile(double beta, double* C, std::size_t ldc, int mb, int nb) {
  if (beta == 1.0) return;
  for (int j = 0; j < nb; ++j) {
    double* cj = C + static_cast<std::size_t>(j) * ldc;
    if (beta == 0.0)
      std::memset(cj, 0, sizeof(double) * mb);
    else
      for (int i = 0; i < mb; ++i) cj[i] *= beta;
  }
}

// la::gemm (scale == nullptr) and la::gemm_scaled, one thread.
inline void gemm(bool transA, bool transB, double alpha, const Matrix& A,
                 const Matrix& B, double beta, Matrix& C,
                 const double* scale = nullptr) {
  const int m = transA ? A.cols() : A.rows();
  const int k = transA ? A.rows() : A.cols();
  const int n = transB ? B.rows() : B.cols();
  if (m == 0 || n == 0) return;
  const int nb = wfire::la::block_size();
  const int MC = 2 * nb;
  const int KC = std::min(4 * nb, 512);
  const int NC = std::max(4 * nb, 256);
  double* Cd = C.data();
  const std::size_t ldc = static_cast<std::size_t>(m);

  if (k == 0 || alpha == 0.0) {
    scale_tile(beta, Cd, ldc, m, n);
    return;
  }
  std::vector<double> bp_buf(static_cast<std::size_t>(KC) * NC);
  double* const Bp = bp_buf.data();
  std::vector<double> ap_buf(static_cast<std::size_t>(MC) * KC);

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int pc = 0; pc < k; pc += KC) {
      const int kc = std::min(KC, k - pc);
      pack_b(B, transB, pc, jc, kc, nc, Bp);
      const double tile_beta = pc == 0 ? beta : 1.0;
      const int n_ic = (m + MC - 1) / MC;
      for (int ib = 0; ib < n_ic; ++ib) {
        const int ic = ib * MC;
        const int mc = std::min(MC, m - ic);
        pack_a(A, transA, ic, pc, mc, kc, scale, ap_buf.data());
        double* Ct = Cd + static_cast<std::size_t>(jc) * ldc + ic;
        scale_tile(tile_beta, Ct, ldc, mc, nc);
        micro_kernel(mc, nc, kc, alpha, ap_buf.data(), Bp, Ct, ldc);
      }
    }
  }
}

// Column-wise mean of X, members summed in member order.
inline void ensemble_mean(const Matrix& X, Vector& mean) {
  const int n = X.rows(), N = X.cols();
  mean.assign(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < N; ++k) {
    const auto col = X.col(k);
    for (int i = 0; i < n; ++i) mean[i] += col[i];
  }
  const double inv = 1.0 / N;
  for (double& m : mean) m *= inv;
}

// A = X - mean * 1^T.
inline void anomalies(const Matrix& X, const Vector& mean, Matrix& A) {
  const int n = X.rows(), N = X.cols();
  A.resize(n, N);
  for (int k = 0; k < N; ++k) {
    const auto src = X.col(k);
    auto dst = A.col(k);
    for (int i = 0; i < n; ++i) dst[i] = src[i] - mean[i];
  }
}

// Multiplicative inflation about the mean: X <- mean + factor * (X - mean).
inline void inflate(Matrix& X, double factor) {
  if (factor == 1.0) return;
  Vector mean;
  ensemble_mean(X, mean);
  for (int k = 0; k < X.cols(); ++k) {
    auto col = X.col(k);
    for (int i = 0; i < X.rows(); ++i)
      col[i] = mean[i] + factor * (col[i] - mean[i]);
  }
}

// The stochastic QR square-root analysis in the image regime (m >= N), its
// draws made inside the analysis, for finite inputs of the right shapes.
inline void enkf_analysis(Matrix& X, const Matrix& HX, const Vector& d,
                          const Vector& r_std, wfire::util::Rng& rng,
                          double inflation) {
  namespace la = wfire::la;
  const int N = X.cols();
  const int m = HX.rows();

  la::Matrix HXw = HX;
  inflate(HXw, inflation);
  la::Vector hxm;
  ensemble_mean(HXw, hxm);
  inflate(X, inflation);
  la::Vector xm;
  ensemble_mean(X, xm);
  la::Matrix A;
  anomalies(X, xm, A);
  la::Matrix HA;
  anomalies(HXw, hxm, HA);

  la::Matrix Y(m, N);
  for (int k = 0; k < N; ++k) {
    const auto src = HXw.col(k);
    auto dst = Y.col(k);
    for (int i = 0; i < m; ++i)
      dst[i] = d[i] + r_std[i] * rng.normal() - src[i];
  }

  const double inv_sqrtn1 = 1.0 / std::sqrt(static_cast<double>(N - 1));
  la::Matrix M(m + N, N);
  la::Matrix W(N, N);
  la::Vector w2(static_cast<std::size_t>(m));
  la::Vector winv(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    winv[i] = inv_sqrtn1 / r_std[i];
    w2[i] = 1.0 / (r_std[i] * r_std[i]);
  }
  for (int k = 0; k < N; ++k) {
    const auto src = HA.col(k);
    auto dst = M.col(k);
    for (int i = 0; i < m; ++i) dst[i] = src[i] * winv[i];
    for (int i = 0; i < N; ++i) dst[m + i] = i == k ? 1.0 : 0.0;
  }
  la::Workspace ws;
  la::tsqr_factor_r_in_place(M, &ws);
  serial_reference::gemm(true, false, inv_sqrtn1, HA, Y, 0.0, W, w2.data());
  la::rt_solve_in_place(M, W);
  la::r_solve_in_place(M, W);
  serial_reference::gemm(false, false, inv_sqrtn1, A, W, 1.0, X);
}

}  // namespace serial_reference
