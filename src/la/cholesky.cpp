#include "la/cholesky.h"

#include "util/omp_compat.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wfire::la {

namespace {

// Reference path: the original unblocked factorization. Returns false on a
// non-positive pivot.
bool try_factor_reference(const Matrix& A, Matrix& L) {
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

// Blocked right-looking factorization: for each panel of nb columns, factor
// the diagonal block unblocked, solve the sub-diagonal panel against it
// (column-oriented, unit stride), then subtract the rank-nb outer product
// from the trailing lower triangle, tiled and threaded. All column accesses
// run down contiguous memory, unlike the reference's strided row walks.
bool try_factor_blocked(const Matrix& A, Matrix& L) {
  const int n = A.rows();
  const int nb = block_size();
  L.resize(n, n);
  double* Ld = L.data();
  const double* Ad = A.data();
  const std::size_t ld = static_cast<std::size_t>(n);

  // Seed L with the lower triangle of A; zero the strict upper triangle.
  for (int j = 0; j < n; ++j) {
    double* cj = Ld + static_cast<std::size_t>(j) * ld;
    std::memset(cj, 0, sizeof(double) * j);
    std::memcpy(cj + j, Ad + static_cast<std::size_t>(j) * ld + j,
                sizeof(double) * (n - j));
  }

  std::vector<std::pair<int, int>> tiles;
  for (int k0 = 0; k0 < n; k0 += nb) {
    const int kb = std::min(nb, n - k0);
    const int rest = k0 + kb;  // first row/col of the trailing matrix

    // 1) Diagonal block, unblocked (updates from previous panels are
    //    already applied, right-looking invariant).
    for (int j = k0; j < rest; ++j) {
      double* cj = Ld + static_cast<std::size_t>(j) * ld;
      double d = cj[j];
      for (int p = k0; p < j; ++p) {
        const double ljp = Ld[static_cast<std::size_t>(p) * ld + j];
        d -= ljp * ljp;
      }
      if (d <= 0.0 || !std::isfinite(d)) return false;
      cj[j] = std::sqrt(d);
      const double inv = 1.0 / cj[j];
      for (int i = j + 1; i < rest; ++i) {
        double s = cj[i];
        for (int p = k0; p < j; ++p)
          s -= Ld[static_cast<std::size_t>(p) * ld + i] *
               Ld[static_cast<std::size_t>(p) * ld + j];
        cj[i] = s * inv;
      }
      // 2) Panel solve for the rows below the block (part of the trsm
      //    L21 <- L21 L11^{-T}, done column by column as the pivots appear).
      for (int p = k0; p < j; ++p) {
        const double ljp = Ld[static_cast<std::size_t>(p) * ld + j];
        if (ljp == 0.0) continue;
        const double* cp = Ld + static_cast<std::size_t>(p) * ld;
        for (int r = rest; r < n; ++r) cj[r] -= cp[r] * ljp;
      }
      for (int r = rest; r < n; ++r) cj[r] *= inv;
    }

    if (rest >= n) break;

    // 3) Trailing update: lower triangle of L(rest:, rest:) minus the
    //    rank-kb product of the freshly solved panel, tiled + threaded.
    tiles.clear();
    for (int j0 = rest; j0 < n; j0 += nb)
      for (int i0 = j0; i0 < n; i0 += nb) tiles.emplace_back(i0, j0);
    const int ntiles = static_cast<int>(tiles.size());
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic) if (ntiles > 1))
    for (int t = 0; t < ntiles; ++t) {
      const auto [i0, j0] = tiles[t];
      const int mb = std::min(nb, n - i0);
      const int nbj = std::min(nb, n - j0);
      const bool diag = i0 == j0;
      for (int j = 0; j < nbj; ++j) {
        double* cj = Ld + (static_cast<std::size_t>(j0) + j) * ld + i0;
        const int istart = diag ? j : 0;
        for (int p = k0; p < rest; ++p) {
          const double* cp = Ld + static_cast<std::size_t>(p) * ld;
          const double v = cp[j0 + j];
          if (v == 0.0) continue;
          const double* a = cp + i0;
          for (int i = istart; i < mb; ++i) cj[i] -= a[i] * v;
        }
      }
    }
  }
  return true;
}

bool try_factor(const Matrix& A, Matrix& L) {
  return backend() == Backend::kReference ? try_factor_reference(A, L)
                                          : try_factor_blocked(A, L);
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
  const int nrhs = B.cols();
  const double* Ld = L.data();
  const std::size_t ld = static_cast<std::size_t>(n);
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (nrhs > 1))
  for (int c = 0; c < nrhs; ++c) {
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
