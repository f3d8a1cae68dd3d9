// Linear algebra tests: BLAS kernels, Cholesky and QR least squares,
// including property-style sweeps on random matrices of varying shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/matrix.h"
#include "la/qr.h"
#include "util/rng.h"

using namespace wfire::la;
using wfire::util::Rng;

namespace {

Matrix random_spd(int n, Rng& rng) {
  const Matrix A = Matrix::random_normal(n, n, rng);
  Matrix S = matmul(A, A, false, true);
  for (int i = 0; i < n; ++i) S(i, i) += n;  // well-conditioned
  return S;
}

// Minimizes ||A X - B||_2 column by column through the R-factor alone, the
// way the EnKF analysis solves its least-squares problem: R^T R = A^T A, so
// X = R^{-1} R^{-T} A^T B (the semi-normal equations). R comes from TSQR,
// the production factorization.
Matrix solve_via_r(const Matrix& A, const Matrix& B) {
  Matrix R = A;
  tsqr_factor_r_in_place(R);
  Matrix X(A.cols(), B.cols());
  gemm(true, false, 1.0, A, B, 0.0, X);
  rt_solve_in_place(R, X);
  r_solve_in_place(R, X);
  return X;
}

Matrix column(const Vector& v) {
  Matrix c(static_cast<int>(v.size()), 1);
  std::copy(v.begin(), v.end(), c.col(0).begin());
  return c;
}

}  // namespace

TEST(Blas, GemvMatchesManual) {
  Matrix A(2, 3);
  A(0, 0) = 1; A(0, 1) = 2; A(0, 2) = 3;
  A(1, 0) = 4; A(1, 1) = 5; A(1, 2) = 6;
  Vector x{1, 1, 1}, y{0, 0};
  gemv(1.0, A, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  Vector z{0, 0, 0};
  gemv_t(1.0, A, Vector{1, 1}, 0.0, z);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Blas, GemmIdentity) {
  Rng rng(1);
  const Matrix A = Matrix::random_normal(7, 5, rng);
  const Matrix I = Matrix::identity(5);
  const Matrix B = matmul(A, I);
  EXPECT_LT(max_abs_diff(A, B), 1e-14);
}

TEST(Blas, GemmTransposeVariantsAgree) {
  Rng rng(2);
  const Matrix A = Matrix::random_normal(6, 4, rng);
  const Matrix B = Matrix::random_normal(4, 3, rng);
  const Matrix C1 = matmul(A, B);
  const Matrix C2 = matmul(A.transposed(), B, true, false);
  EXPECT_LT(max_abs_diff(C1, C2), 1e-12);
  const Matrix C3 = matmul(A, B.transposed(), false, true);
  EXPECT_LT(max_abs_diff(C1, C3), 1e-12);
}

TEST(Blas, GemmAccumulatesWithBeta) {
  Matrix A = Matrix::identity(3);
  Matrix C(3, 3, 1.0);
  gemm(false, false, 2.0, A, A, 3.0, C);
  EXPECT_DOUBLE_EQ(C(0, 0), 5.0);   // 3*1 + 2*1
  EXPECT_DOUBLE_EQ(C(0, 1), 3.0);   // 3*1 + 0
}

class CholeskyParam : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyParam, FactorReconstructsAndSolves) {
  Rng rng(GetParam());
  const int n = GetParam();
  const Matrix S = random_spd(n, rng);
  const CholeskyResult f = cholesky(S);
  EXPECT_EQ(f.jitter_tries, 0);
  const Matrix R = matmul(f.L, f.L, false, true);
  EXPECT_LT(max_abs_diff(S, R), 1e-9 * n);

  Vector x_true(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x_true[i] = std::sin(i + 1.0);
  Vector b(static_cast<std::size_t>(n), 0.0);
  gemv(1.0, S, x_true, 0.0, b);
  cholesky_solve(f.L, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyParam,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(Cholesky, JitterRecoversSemidefinite) {
  // Rank-1 matrix: positive semidefinite, needs a jitter boost.
  Matrix S(3, 3);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 3; ++i) S(i, j) = (i + 1.0) * (j + 1.0);
  const CholeskyResult f = cholesky(S);
  EXPECT_GT(f.jitter_tries, 0);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  Matrix S = Matrix::identity(3);
  S(2, 2) = -5.0;
  EXPECT_THROW(cholesky(S, 1), std::runtime_error);
}

class QrParam : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrParam, LeastSquaresMatchesNormalEquations) {
  const auto [m, n] = GetParam();
  Rng rng(m * 100 + n);
  const Matrix A = Matrix::random_normal(m, n, rng);
  Vector b(static_cast<std::size_t>(m));
  for (auto& v : b) v = rng.normal();

  const Matrix x = solve_via_r(A, column(b));

  // Normal equations solution.
  const Matrix AtA = matmul(A, A, true, false);
  Vector Atb(static_cast<std::size_t>(n), 0.0);
  gemv_t(1.0, A, b, 0.0, Atb);
  const CholeskyResult f = cholesky(AtA);
  cholesky_solve(f.L, Atb);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x(i, 0), Atb[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrParam,
    ::testing::Values(std::pair{5, 5}, std::pair{10, 3}, std::pair{50, 10},
                      std::pair{100, 25}, std::pair{30, 30}));

TEST(Qr, MultiRhsMatchesSingle) {
  Rng rng(10);
  const Matrix A = Matrix::random_normal(20, 6, rng);
  const Matrix B = Matrix::random_normal(20, 3, rng);
  const Matrix X = solve_via_r(A, B);
  for (int j = 0; j < 3; ++j) {
    const Vector b(B.col(j).begin(), B.col(j).end());
    const Matrix x = solve_via_r(A, column(b));
    for (int i = 0; i < 6; ++i) EXPECT_NEAR(X(i, j), x(i, 0), 1e-10);
  }
}

TEST(Qr, ThrowsOnWide) {
  Rng rng(11);
  const Matrix A = Matrix::random_normal(3, 5, rng);
  Matrix A1 = A, A2 = A;
  Vector beta;
  EXPECT_THROW(qr_factor_in_place(A1, beta), std::invalid_argument);
  EXPECT_THROW(tsqr_factor_r_in_place(A2), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(16);
  const Matrix A = Matrix::random_normal(5, 9, rng);
  EXPECT_LT(max_abs_diff(A.transposed().transposed(), A), 1e-15);
}

TEST(Matrix, ColSpanIsContiguousColumn) {
  Matrix A(3, 2, 0.0);
  auto c1 = A.col(1);
  c1[0] = 7.0;
  EXPECT_DOUBLE_EQ(A(0, 1), 7.0);
}
