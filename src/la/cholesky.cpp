#include "la/cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wfire::la {

namespace {

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

int cholesky_factor(const Matrix& A, Matrix& L, int max_jitter_tries) {
  if (A.rows() != A.cols())
    throw std::invalid_argument("cholesky: matrix not square");
  const int n = A.rows();
  double trace = 0;
  for (int i = 0; i < n; ++i) trace += A(i, i);
  const double base =
      std::numeric_limits<double>::epsilon() * std::max(trace / n, 1.0);

  if (try_factor(A, L)) return 0;
  Matrix Aj = A;
  double shift = base;
  for (int t = 1; t <= max_jitter_tries; ++t) {
    shift *= 100.0;
    for (int i = 0; i < n; ++i) Aj(i, i) = A(i, i) + shift;
    if (try_factor(Aj, L)) return t;
  }
  throw std::runtime_error("cholesky: matrix not SPD (jitter exhausted)");
}

CholeskyResult cholesky(const Matrix& A, int max_jitter_tries) {
  CholeskyResult out;
  out.jitter_tries = cholesky_factor(A, out.L, max_jitter_tries);
  return out;
}

void cholesky_solve(const Matrix& L, Vector& b) {
  const int n = L.rows();
  if (static_cast<int>(b.size()) != n)
    throw std::invalid_argument("cholesky_solve: size mismatch");
  // Forward substitution L y = b.
  for (int i = 0; i < n; ++i) {
    double s = b[i];
    for (int p = 0; p < i; ++p) s -= L(i, p) * b[p];
    b[i] = s / L(i, i);
  }
  // Back substitution L^T x = y.
  for (int i = n - 1; i >= 0; --i) {
    double s = b[i];
    for (int p = i + 1; p < n; ++p) s -= L(p, i) * b[p];
    b[i] = s / L(i, i);
  }
}

void cholesky_solve_in_place(const Matrix& L, Matrix& B) {
  const int n = L.rows();
  if (B.rows() != n)
    throw std::invalid_argument("cholesky_solve_in_place: size mismatch");
  const double* Ld = L.data();
  const std::size_t ld = static_cast<std::size_t>(n);
  for (int c = 0; c < B.cols(); ++c) {
    double* b = B.data() + static_cast<std::size_t>(c) * n;
    // Forward substitution, column-oriented: once b[j] is final, subtract
    // its multiple of column j from the remainder (unit-stride walks).
    for (int j = 0; j < n; ++j) {
      const double* lj = Ld + static_cast<std::size_t>(j) * ld;
      const double yj = b[j] / lj[j];
      b[j] = yj;
      for (int i = j + 1; i < n; ++i) b[i] -= lj[i] * yj;
    }
    // Back substitution with L^T: column i of L is row i of L^T, so the
    // inner dot product also runs down contiguous memory.
    for (int i = n - 1; i >= 0; --i) {
      const double* li = Ld + static_cast<std::size_t>(i) * ld;
      double s = b[i];
      for (int p = i + 1; p < n; ++p) s -= li[p] * b[p];
      b[i] = s / li[i];
    }
  }
}

Matrix cholesky_solve(const Matrix& L, const Matrix& B) {
  Matrix X = B;
  cholesky_solve_in_place(L, X);
  return X;
}

}  // namespace wfire::la
