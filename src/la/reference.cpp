#include "la/reference.h"

#include <cmath>

#include "la/cholesky.h"

namespace wfire::la::reference {

namespace {

// Element accessor honoring the transpose flag.
inline double at(const Matrix& M, bool trans, int i, int j) {
  return trans ? M(j, i) : M(i, j);
}

// `scale`, when non-null, weights the contraction dimension: the kernel
// computes op(A) diag(scale) op(B) (null means plain gemm).
void gemm_impl(bool transA, bool transB, double alpha, const Matrix& A,
               const Matrix& B, double beta, Matrix& C, const double* scale) {
  const int m = C.rows(), n = C.cols();
  const int k = transA ? A.rows() : A.cols();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) C(i, j) *= beta;
    for (int p = 0; p < k; ++p) {
      double bpj = alpha * at(B, transB, p, j);
      if (scale) bpj *= scale[p];
      if (bpj == 0.0) continue;
      for (int i = 0; i < m; ++i) C(i, j) += at(A, transA, i, p) * bpj;
    }
  }
}

void syrk_impl(bool transA, double alpha, const Matrix& A, double beta,
               Matrix& C, const double* scale) {
  const int m = C.rows();
  const int k = transA ? A.rows() : A.cols();
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

// The unblocked factorization. Returns false on a non-positive pivot.
bool try_factor(const Matrix& A, Matrix& L) {
  const int n = A.rows();
  L.resize(n, n);
  L.fill(0.0);
  for (int j = 0; j < n; ++j) {
    double d = A(j, j);
    for (int p = 0; p < j; ++p) d -= L(j, p) * L(j, p);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    L(j, j) = std::sqrt(d);
    const double inv = 1.0 / L(j, j);
    for (int i = j + 1; i < n; ++i) {
      double s = A(i, j);
      for (int p = 0; p < j; ++p) s -= L(i, p) * L(j, p);
      L(i, j) = s * inv;
    }
  }
  return true;
}

}  // namespace

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C) {
  gemm_impl(transA, transB, alpha, A, B, beta, C, nullptr);
}

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C) {
  gemm_impl(transA, transB, alpha, A, B, beta, C, w.data());
}

void syrk(bool transA, double alpha, const Matrix& A, double beta, Matrix& C) {
  syrk_impl(transA, alpha, A, beta, C, nullptr);
}

void syrk_scaled(bool transA, double alpha, const Matrix& A, const Vector& w,
                 double beta, Matrix& C) {
  syrk_impl(transA, alpha, A, beta, C, w.data());
}

void ger(double alpha, const Vector& x, const Vector& y, Matrix& A) {
  for (int j = 0; j < A.cols(); ++j) {
    const double yj = alpha * y[j];
    for (int i = 0; i < A.rows(); ++i) A(i, j) += x[i] * yj;
  }
}

int cholesky_factor(const Matrix& A, Matrix& L, int max_jitter_tries) {
  return detail::factor_with_jitter(A, L, max_jitter_tries, try_factor);
}

}  // namespace wfire::la::reference
