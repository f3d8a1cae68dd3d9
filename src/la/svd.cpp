#include "la/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wfire::la {

namespace {

// One-sided Jacobi on A (m x n, m >= n): orthogonalizes columns of A by
// plane rotations accumulated into V. On exit A = U * diag(sigma).
SvdResult svd_tall(Matrix A, int max_sweeps) {
  const int m = A.rows();
  const int n = A.cols();
  Matrix V = Matrix::identity(n);
  const double eps = 1e-15;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        double app = 0, aqq = 0, apq = 0;
        for (int i = 0; i < m; ++i) {
          app += A(i, p) * A(i, p);
          aqq += A(i, q) * A(i, q);
          apq += A(i, p) * A(i, q);
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        off = std::max(off, std::abs(apq) / std::sqrt(app * aqq + 1e-300));
        // Jacobi rotation zeroing the (p,q) entry of A^T A.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (int i = 0; i < m; ++i) {
          const double aip = A(i, p), aiq = A(i, q);
          A(i, p) = c * aip - s * aiq;
          A(i, q) = s * aip + c * aiq;
        }
        for (int i = 0; i < n; ++i) {
          const double vip = V(i, p), viq = V(i, q);
          V(i, p) = c * vip - s * viq;
          V(i, q) = s * vip + c * viq;
        }
      }
    }
    if (off < 1e-14) break;
  }

  // Column norms are the singular values; normalize to get U.
  SvdResult r{Matrix(m, n), Vector(static_cast<std::size_t>(n)), std::move(V)};
  std::vector<int> order(n);
  Vector sig(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double s = 0;
    for (int i = 0; i < m; ++i) s += A(i, j) * A(i, j);
    sig[j] = std::sqrt(s);
  }
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return sig[a] > sig[b]; });
  Matrix Vs(n, n);
  for (int jj = 0; jj < n; ++jj) {
    const int j = order[jj];
    r.sigma[jj] = sig[j];
    const double inv = sig[j] > 0 ? 1.0 / sig[j] : 0.0;
    for (int i = 0; i < m; ++i) r.U(i, jj) = A(i, j) * inv;
    for (int i = 0; i < n; ++i) Vs(i, jj) = r.V(i, j);
  }
  r.V = std::move(Vs);
  return r;
}

}  // namespace

SvdResult svd(const Matrix& A, int max_sweeps) {
  if (A.rows() == 0 || A.cols() == 0)
    throw std::invalid_argument("svd: empty matrix");
  if (A.rows() >= A.cols()) return svd_tall(A, max_sweeps);
  // Wide matrix: factor the transpose and swap U <-> V.
  SvdResult t = svd_tall(A.transposed(), max_sweeps);
  return SvdResult{std::move(t.V), std::move(t.sigma), std::move(t.U)};
}

}  // namespace wfire::la
