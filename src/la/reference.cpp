#include "la/reference.h"

#include <stdexcept>

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

}  // namespace

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

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C) {
  gemm_impl(transA, transB, alpha, A, B, beta, C, nullptr);
}

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C) {
  gemm_impl(transA, transB, alpha, A, B, beta, C, w.data());
}

}  // namespace wfire::la::reference
