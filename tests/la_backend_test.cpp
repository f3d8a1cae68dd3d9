// The tile-edge override, the multi-RHS Cholesky solve, the workspace
// arena, and the blocked gemm's bitwise agreement with its serial loops at
// every OpenMP width. The blocked-vs-reference gemm agreement across randomized
// degenerate / odd / tile-straddling / rank-deficient shapes lives in
// la_property_test.cpp (which replaced the hand-enumerated shape lists that
// used to sit here).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/workspace.h"
#include "serial_reference.h"
#include "util/omp_compat.h"
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

namespace {

// Y-like operand: normal entries with exact zeros (every third entry and
// the whole of column 1), where the micro-kernel's leftover-column branch
// skips the multiply-add and its grouped branch does not.
Matrix with_zeros(int rows, int cols, Rng& rng) {
  Matrix M = Matrix::random_normal(rows, cols, rng);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i)
      if ((i + 2 * j) % 3 == 0 || j == 1) M(i, j) = 0.0;
  return M;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

}  // namespace

// The EnKF's coefficient product W = HA^T diag(w) Y has one macro tile row
// (M = N members), so gemm splits its output columns across the team. Every
// element must keep its serial summation order: memcmp-equal to the serial
// loops at widths 1, 2 and 4, over contraction lengths from one panel to
// the 101^2-image observation count, with Y holding exact zeros. An
// infinite HA entry makes the grouped and leftover kernel branches differ
// (inf * 0 is NaN; a skipped term is not), so a split that moved a column
// between the branches would show.
TEST(GemmBitwise, ColumnSplitMatchesSerialLoops) {
  Rng rng(2201);
  for (const int K : {25, 257, 1000, 30603}) {
    for (const int MN : {2, 5, 8, 25}) {
      SCOPED_TRACE(::testing::Message() << "K " << K << " M=N " << MN);
      Matrix HA = Matrix::random_normal(K, MN, rng);
      const Matrix Y = with_zeros(K, MN, rng);
      Vector w(static_cast<std::size_t>(K));
      for (double& v : w) v = 0.5 + rng.uniform();
      Matrix HAi = HA;
      HAi(K / 2, MN - 1) = std::numeric_limits<double>::infinity();
      for (const Matrix* a : {&HA, &HAi}) {
        Matrix want(MN, MN);
        serial_reference::gemm(true, false, 0.2, *a, Y, 0.0, want, w.data());
        // Both transposes of the same product, and the unscaled gemm with
        // beta = 1 on a filled C.
        const Matrix aT = a->transposed(), YT = Y.transposed();
        Matrix C0 = Matrix::random_normal(MN, MN, rng);
        Matrix want_acc = C0;
        serial_reference::gemm(false, true, -1.5, aT, YT, 1.0, want_acc);
        for (const int width : {1, 2, 4}) {
          wfire::util::ScopedOmpNumThreads omp(width);
          Matrix got(MN, MN, 7.0);
          gemm_scaled(true, false, 0.2, *a, w, Y, 0.0, got);
          EXPECT_TRUE(bitwise_equal(got, want)) << "width " << width;
          Matrix got_acc = C0;
          gemm(false, true, -1.5, aT, YT, 1.0, got_acc);
          EXPECT_TRUE(bitwise_equal(got_acc, want_acc)) << "width " << width;
        }
      }
    }
  }
}
