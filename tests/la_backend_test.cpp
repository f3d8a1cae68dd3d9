// The tile-edge override, the multi-RHS Cholesky solve, and the workspace
// arena. The blocked-vs-reference gemm agreement across randomized
// degenerate / odd / tile-straddling / rank-deficient shapes lives in
// la_property_test.cpp (which replaced the hand-enumerated shape lists that
// used to sit here).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/workspace.h"
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

}  // namespace

TEST(BlockSize, ScopedOverrideClampsAndRestores) {
  const int initial = block_size();
  {
    ScopedBlockSize outer(32);
    EXPECT_EQ(block_size(), 32);
    {
      ScopedBlockSize inner(3);  // clamped to the minimum tile edge
      EXPECT_EQ(block_size(), 8);
    }
    EXPECT_EQ(block_size(), 32);
  }
  EXPECT_EQ(block_size(), initial);
}

TEST(BackendCholesky, MultiRhsSolveMatchesScalarSolve) {
  Rng rng(301);
  for (const int n : {1, 5, 63, 130}) {
    for (const int nrhs : {1, 3, 25}) {
      const Matrix S = random_spd(n, rng);
      const CholeskyResult f = cholesky(S);
      const Matrix B = Matrix::random_normal(n, nrhs, rng);
      Matrix X = B;
      cholesky_solve_in_place(f.L, X);
      for (int c = 0; c < nrhs; ++c) {
        Vector b(B.col(c).begin(), B.col(c).end());
        cholesky_solve(f.L, b);
        for (int i = 0; i < n; ++i)
          EXPECT_NEAR(X(i, c), b[i], 1e-10 * std::max(1.0, std::abs(b[i])))
              << "n " << n << " rhs " << c;
      }
    }
  }
}

TEST(Workspace, ReusesBuffersAcrossReshapes) {
  Workspace ws;
  Matrix& a = ws.mat("a", 100, 50);
  const double* data0 = a.data();
  a.fill(1.0);
  // Shrink then regrow within capacity: same allocation.
  Matrix& a2 = ws.mat("a", 10, 5);
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(a2.data(), data0);
  Matrix& a3 = ws.mat("a", 50, 100);
  EXPECT_EQ(a3.data(), data0);
  EXPECT_EQ(a3.rows(), 50);
  EXPECT_EQ(a3.cols(), 100);

  Vector& v = ws.vec("v", 1000);
  const double* vd = v.data();
  Vector& v2 = ws.vec("v", 10);
  EXPECT_EQ(v2.data(), vd);

  EXPECT_EQ(ws.held_doubles(), 50u * 100u + 10u);
  ws.clear();
  EXPECT_EQ(ws.held_doubles(), 0u);
}

TEST(Workspace, DistinctKeysDistinctBuffers) {
  Workspace ws;
  Matrix& a = ws.mat("a", 4, 4);
  Matrix& b = ws.mat("b", 4, 4);
  EXPECT_NE(a.data(), b.data());
  a.fill(1.0);
  b.fill(2.0);
  EXPECT_DOUBLE_EQ(ws.mat("a", 4, 4)(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ws.mat("b", 4, 4)(0, 0), 2.0);
}

TEST(MatrixResize, KeepsColumnPrefix) {
  // The sequential-EnKF batch flush relies on resize preserving the leading
  // columns of a column-major matrix.
  Matrix A(3, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 3; ++i) A(i, j) = 10.0 * j + i;
  A.resize(3, 2);
  EXPECT_DOUBLE_EQ(A(2, 1), 12.0);
  A.resize(3, 4);
  EXPECT_DOUBLE_EQ(A(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(A(2, 1), 12.0);
}
