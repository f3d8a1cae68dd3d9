// Randomized property-test harness for the blocked dense LA kernels and
// the EnKF analysis. A seeded shape generator draws degenerate (size-1),
// small-odd, tile-straddling and tall m >> N shapes — plus rank-deficient
// contents (zero / duplicated columns, low-rank products) — and pins
//   - blocked vs la::reference gemm agreement <= 1e-10 across random block
//     sizes,
//   - TSQR vs reference Householder R agreement (row signs normalized) over
//     single-leaf and multi-block panels, R^T R = A^T A on rank-deficient
//     inputs, and the triangular solves against R,
//   - gemm_scaled vs an explicitly materialized diagonal scaling, and
//   - QR square-root vs obs-space-oracle analysis increments <= 1e-8 end to
//     end.
// This replaces the hand-enumerated shape lists that used to live in
// la_backend_test.cpp. Every case logs its index and derived seed, so a
// failure reproduces by construction (the master seeds below are fixed).
//
// The PackedPanelRegression case at the bottom reproduces the PR 3 bug
// class (thread_local packed-panel buffers read as empty by OMP workers);
// tests/CMakeLists.txt runs it again under OMP_NUM_THREADS=4 so single-core
// containers cannot hide the race. TsqrTreeRegression gets the same
// treatment for the TSQR row-block reduction tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "enkf/enkf.h"
#include "enkf/reference.h"
#include "la/blas.h"
#include "la/qr.h"
#include "la/reference.h"
#include "la/workspace.h"
#include "util/rng.h"

using namespace wfire::la;
using wfire::util::Rng;

namespace {

// Relative max-abs error against the Frobenius scale of the reference.
double rel_err(const Matrix& got, const Matrix& want) {
  const double scale = std::max(frobenius_norm(want), 1.0);
  return max_abs_diff(got, want) / scale;
}

// Extracts the n x n upper triangle from the top of a factored panel
// (the reference packed form and the TSQR in-place form both leave R
// there), zeros below.
Matrix top_r(const Matrix& A) {
  const int n = A.cols();
  Matrix R(n, n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) R(i, j) = A(i, j);
  return R;
}

// QR factors are unique only up to the sign of each R row (the matching
// column of Q); the TSQR reduction tree picks different signs than the
// single Householder chain, so agreement is checked on the normalized form
// with every diagonal made non-negative.
void normalize_r_signs(Matrix& R) {
  for (int i = 0; i < R.rows(); ++i)
    if (R(i, i) < 0)
      for (int j = i; j < R.cols(); ++j) R(i, j) = -R(i, j);
}

// Seeded generator of stress shapes and matrix contents. Categories mirror
// what broke (or could break) the tiled kernels: degenerate dimensions,
// small odd sizes, sizes straddling the tile edge, and the tall-skinny
// m >> N regime of image-scale EnKF systems.
class CaseGen {
 public:
  explicit CaseGen(std::uint64_t seed) : rng_(seed) {}

  int dim(int nb) {
    switch (rng_.uniform_int(4)) {
      case 0:
        return 1;  // degenerate
      case 1:
        return 2 + static_cast<int>(rng_.uniform_int(15));  // small / odd
      case 2: {
        // Straddle the tile edge: {nb-1, nb, nb+1} and {2nb-1, 2nb, 2nb+1}.
        const int mult = 1 + static_cast<int>(rng_.uniform_int(2));
        const int off = static_cast<int>(rng_.uniform_int(3)) - 1;
        return std::max(1, mult * nb + off);
      }
      default:
        return 100 + static_cast<int>(rng_.uniform_int(160));  // multi-tile
    }
  }

  int tall() { return 200 + static_cast<int>(rng_.uniform_int(1100)); }
  int skinny() { return 2 + static_cast<int>(rng_.uniform_int(30)); }
  int block() {
    constexpr int kSizes[] = {8, 16, 64};
    return kSizes[rng_.uniform_int(3)];
  }
  bool coin() { return rng_.uniform_int(2) == 1; }
  double scalar() { return rng_.uniform(-2.0, 2.0); }

  Matrix dense(int m, int n) { return Matrix::random_normal(m, n, rng_); }

  // Rank-deficient contents: zero columns, duplicated columns, or a
  // low-rank product — shapes the QR square root must handle without a
  // rank cutoff.
  Matrix deficient(int m, int n) {
    Matrix A = dense(m, n);
    switch (rng_.uniform_int(3)) {
      case 0: {  // zero out a few columns
        const int nz = 1 + static_cast<int>(rng_.uniform_int(std::max(n / 2, 1)));
        for (int z = 0; z < nz; ++z) {
          auto col = A.col(static_cast<int>(rng_.uniform_int(n)));
          std::fill(col.begin(), col.end(), 0.0);
        }
        break;
      }
      case 1: {  // duplicate columns
        if (n >= 2) {
          const int src = static_cast<int>(rng_.uniform_int(n));
          const int dst = static_cast<int>(rng_.uniform_int(n));
          const auto s = A.col(src);
          auto d = A.col(dst);
          std::copy(s.begin(), s.end(), d.begin());
        }
        break;
      }
      default: {  // rank r < min(m, n) outer product
        const int r = 1 + static_cast<int>(
                              rng_.uniform_int(std::max(std::min(m, n) / 2, 1)));
        const Matrix L = dense(m, r);
        const Matrix R = dense(r, n);
        gemm(false, false, 1.0, L, R, 0.0, A);
        break;
      }
    }
    return A;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

}  // namespace

TEST(PropertyGemm, BlockedMatchesReferenceAcrossRandomShapes) {
  CaseGen gen(0xA11CE5EEDULL);
  for (int c = 0; c < 48; ++c) {
    const int nb = gen.block();
    ScopedBlockSize scope(nb);
    const int m = gen.dim(nb), n = gen.dim(nb), k = gen.dim(nb);
    const bool tA = gen.coin(), tB = gen.coin();
    const double alpha = gen.scalar();
    const double beta = gen.coin() ? gen.scalar() : 0.0;
    const bool rank_def = c % 5 == 4;
    const Matrix A = rank_def ? gen.deficient(tA ? k : m, tA ? m : k)
                              : gen.dense(tA ? k : m, tA ? m : k);
    const Matrix B = gen.dense(tB ? n : k, tB ? k : n);
    Matrix C0 = gen.dense(m, n);
    Matrix C1 = C0;
    reference::gemm(tA, tB, alpha, A, B, beta, C0);
    gemm(tA, tB, alpha, A, B, beta, C1);
    ASSERT_LE(rel_err(C1, C0), 1e-10)
        << "case " << c << ": " << m << "x" << n << "x" << k << " tA " << tA
        << " tB " << tB << " alpha " << alpha << " beta " << beta << " nb "
        << nb << (rank_def ? " (rank-deficient A)" : "");
  }
}

TEST(PropertyQr, RtRReproducesGramOnRankDeficient) {
  // Rank-deficient inputs admit many valid QR factorizations (a numerically
  // zero pivot column makes the reflector direction arbitrary), so the
  // reference chain and TSQR are each pinned to the property the square-root
  // analysis relies on, R^T R = A^T A, instead of to each other. Row counts
  // reach several TSQR blocks so the reduction tree sees the deficiency too.
  CaseGen gen(0xDEF1C1E47ULL);
  for (int c = 0; c < 24; ++c) {
    const int n = 2 + static_cast<int>(gen.rng().uniform_int(24));
    const int m = n + static_cast<int>(gen.rng().uniform_int(900));
    const Matrix A = c % 4 == 3 ? gen.dense(m, n) : gen.deficient(m, n);
    Matrix gram(n, n);
    gemm(true, false, 1.0, A, A, 0.0, gram);
    Matrix qr_ref = A, qr_tsqr = A;
    Vector beta;
    Workspace ws;
    qr_factor_in_place(qr_ref, beta);
    tsqr_factor_r_in_place(qr_tsqr, &ws);
    for (const Matrix* f : {&qr_ref, &qr_tsqr}) {
      const Matrix R = top_r(*f);
      Matrix rtr(n, n);
      gemm(true, false, 1.0, R, R, 0.0, rtr);
      ASSERT_LE(rel_err(rtr, gram), 1e-10)
          << "case " << c << ": " << m << "x" << n << " blocks "
          << tsqr_nblocks(m, n) << (f == &qr_ref ? " reference" : " tsqr");
    }
  }
}

TEST(PropertyQr, TriangularSolvesRoundTrip) {
  CaseGen gen(0xAB5013DULL);
  for (int c = 0; c < 16; ++c) {
    const int n = 2 + static_cast<int>(gen.rng().uniform_int(60));
    const int m = n + static_cast<int>(gen.rng().uniform_int(300));
    const int nrhs = 1 + static_cast<int>(gen.rng().uniform_int(20));
    Matrix QR = gen.dense(m, n);
    Workspace ws;
    tsqr_factor_r_in_place(QR, &ws);
    const Matrix R = top_r(QR);

    // R^T (R x) round trip through the triangular solves.
    Matrix Z = gen.dense(n, nrhs);
    Matrix Y(n, nrhs);
    gemm(false, false, 1.0, R, Z, 0.0, Y);  // Y = R Z
    r_solve_in_place(QR, Y);
    ASSERT_LE(rel_err(Y, Z), 1e-8) << "case " << c << " r_solve";
    gemm(true, false, 1.0, R, Z, 0.0, Y);  // Y = R^T Z
    rt_solve_in_place(QR, Y);
    ASSERT_LE(rel_err(Y, Z), 1e-8) << "case " << c << " rt_solve";
  }
}

TEST(PropertyTsqr, RAgreesWithReference) {
  // The TSQR reduction tree must produce the same R (up to row signs) as
  // the serial reference chain, across tall full-rank shapes including
  // block-straddling row counts (the 128-row leaf split), odd block counts
  // (the pass-through tree edge) and panels too short to split (one leaf).
  CaseGen gen(0x75A21D0ULL);
  int single = 0, multi = 0;
  Workspace ws;  // shared across cases: reshaped scratch must not leak
  for (int c = 0; c < 32; ++c) {
    const int n = gen.skinny();
    int m;
    switch (c % 4) {
      case 0:
        m = gen.tall();
        break;
      case 1:
        m = 128 * (2 + static_cast<int>(gen.rng().uniform_int(6))) +
            static_cast<int>(gen.rng().uniform_int(3)) - 1;
        break;
      case 2:
        m = 128 * (3 + 2 * static_cast<int>(gen.rng().uniform_int(3)));
        break;
      default:  // below the two-block threshold: a single serial leaf
        m = n + static_cast<int>(gen.rng().uniform_int(256 - n));
        break;
    }
    m = std::max(m, n);
    (tsqr_nblocks(m, n) == 1 ? single : multi) += 1;
    const Matrix A = gen.dense(m, n);
    Matrix qr_ref = A, qr_tsqr = A;
    Vector beta_ref;
    qr_factor_in_place(qr_ref, beta_ref);
    tsqr_factor_r_in_place(qr_tsqr, &ws);
    Matrix R_ref = top_r(qr_ref), R_tsqr = top_r(qr_tsqr);
    normalize_r_signs(R_ref);
    normalize_r_signs(R_tsqr);
    ASSERT_LE(rel_err(R_tsqr, R_ref), 1e-10)
        << "case " << c << ": " << m << "x" << n << " blocks "
        << tsqr_nblocks(m, n);
  }
  EXPECT_GT(single, 0) << "no single-leaf panel drawn";
  EXPECT_GT(multi, 0) << "no multi-block panel drawn";
}

TEST(PropertyGemmScaled, MatchesMaterializedScaling) {
  // gemm_scaled must equal the plain gemm on an explicitly scaled operand
  // (diag(w) folded into op(B)'s contraction dimension), for the reference
  // oracle and the blocked kernel alike.
  CaseGen gen(0x5CA1EDULL);
  for (int c = 0; c < 24; ++c) {
    const int nb = gen.block();
    const int m = gen.dim(nb), n = gen.dim(nb), k = gen.dim(nb);
    const bool tA = gen.coin(), tB = gen.coin();
    const double alpha = gen.scalar();
    const double beta = gen.coin() ? gen.scalar() : 0.0;
    const Matrix A = gen.dense(tA ? k : m, tA ? m : k);
    const Matrix B = gen.dense(tB ? n : k, tB ? k : n);
    Vector w(static_cast<std::size_t>(k));
    for (int p = 0; p < k; ++p) w[p] = gen.rng().uniform(0.1, 3.0);
    // Materialize diag(w) op(B): scale row p of op(B), i.e. row p of B or
    // column p of B under transpose.
    Matrix Bs = B;
    if (!tB)
      for (int j = 0; j < B.cols(); ++j)
        for (int p = 0; p < k; ++p) Bs(p, j) *= w[p];
    else
      for (int p = 0; p < k; ++p)
        for (int j = 0; j < B.rows(); ++j) Bs(j, p) *= w[p];
    Matrix C0 = gen.dense(m, n);
    Matrix C1 = C0;
    Matrix C2 = C0;
    reference::gemm(tA, tB, alpha, A, Bs, beta, C0);
    reference::gemm_scaled(tA, tB, alpha, A, w, B, beta, C1);
    ASSERT_LE(rel_err(C1, C0), 1e-10) << "case " << c << " reference";
    {
      ScopedBlockSize blk(nb);
      gemm_scaled(tA, tB, alpha, A, w, B, beta, C2);
    }
    ASSERT_LE(rel_err(C2, C0), 1e-10)
        << "case " << c << ": " << m << "x" << n << "x" << k << " tA " << tA
        << " tB " << tB << " nb " << nb;
  }
}

TEST(PropertyEnkf, QrAndSvdAnalysisIncrementsAgree) {
  // End-to-end pin of the square-root analysis: enkf_analysis (the QR
  // square root) must match the obs-space oracle on the same problem (same
  // innovation draws) to <= 1e-8 relative increment error, across shapes
  // including m >> N image scale and rank-deficient ensembles. The shape
  // generator cycles through four regimes: a stacked panel that TSQR splits
  // into row blocks; m > 2N with a panel too short to split (m + N < 256,
  // one serial leaf); N <= m <= 2N, a few point observations rather than an
  // image; and m < N, where the QR path must factor the m x m (not N x N)
  // square-root system.
  CaseGen gen(0xE2DF4C70ULL);
  int multi = 0, single = 0, band = 0, wide = 0;
  for (int c = 0; c < 16; ++c) {
    const int N = 4 + static_cast<int>(gen.rng().uniform_int(24));
    int m;
    switch (c % 4) {
      case 0:  // stacked panel splits into >= 2 row blocks
        m = 256 + static_cast<int>(gen.rng().uniform_int(700));
        break;
      case 1:  // m > 2N but the stacked panel stays a single leaf
        m = 2 * N + 1 +
            static_cast<int>(gen.rng().uniform_int(256 - 3 * N - 1));
        break;
      case 2:  // N <= m <= 2N
        m = N + static_cast<int>(gen.rng().uniform_int(N + 1));
        break;
      default:  // m < N
        m = 2 + static_cast<int>(gen.rng().uniform_int(N - 2));
        break;
    }
    const int rdim = std::min(m, N);
    if (m < N)
      ++wide;
    else if (m <= 2 * N)
      ++band;
    else if (tsqr_nblocks(m + N, rdim) == 1)
      ++single;
    else
      ++multi;
    const int n = 20 + static_cast<int>(gen.rng().uniform_int(100));
    Matrix X(n, N);
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < n; ++i) X(i, k) = gen.rng().normal();
    Matrix HX(m, N);
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < m; ++i)
        HX(i, k) = X(i % n, k) + 0.1 * gen.rng().normal();
    if (c % 3 == 2 && N >= 3) {
      // Duplicated member (state and observed): exactly rank-deficient
      // anomalies. The QR path's pivots stay >= 1 and the oracle's S keeps
      // R on its diagonal, so both stay well posed.
      std::copy(X.col(0).begin(), X.col(0).end(), X.col(1).begin());
      std::copy(HX.col(0).begin(), HX.col(0).end(), HX.col(1).begin());
    }
    Vector d(static_cast<std::size_t>(m));
    Vector r_std(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      d[i] = gen.rng().normal();
      r_std[i] = gen.rng().uniform(0.3, 2.0);
    }
    const std::uint64_t rng_seed = 1000 + c;

    Matrix Xs = X;
    Rng rs(rng_seed);
    wfire::enkf::reference::analysis_obs_space(Xs, HX, d, r_std, rs);

    // Relative to the size of the oracle increment, not of X.
    Matrix inc(n, N);
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < n; ++i) inc(i, k) = Xs(i, k) - X(i, k);
    const double scale = std::max(frobenius_norm(inc), 1e-12);

    Matrix Xq = X;
    Rng rq(rng_seed);
    wfire::enkf::enkf_analysis(Xq, HX, d, r_std, rq);
    ASSERT_LE(max_abs_diff(Xq, Xs) / scale, 1e-8)
        << "case " << c << ": n " << n << " m " << m << " N " << N
        << " blocks " << tsqr_nblocks(m + N, rdim);
  }
  EXPECT_GT(multi, 0) << "no multi-block panel drawn";
  EXPECT_GT(single, 0) << "no single-leaf m > 2N panel drawn";
  EXPECT_GT(band, 0) << "no N <= m <= 2N system drawn";
  EXPECT_GT(wide, 0) << "no m < N system drawn";
}

// Regression for the packed-panel sharing bug: gemm packs shared panels into
// thread_local buffers; capturing the buffer (instead of its raw pointer)
// in the OpenMP region made every worker read its own empty instance. The
// bug is invisible with one thread, so tests/CMakeLists.txt re-runs this
// suite with OMP_NUM_THREADS=4; tiles (8) far smaller than the packed
// panels (KC/NC/MC) force multiple workers through one shared panel.
TEST(PackedPanelRegression, BlockedKernelsWithTilesSmallerThanPanels) {
  Rng rng(0xF00DF00DULL);
  ScopedBlockSize scope(8);
  const int m = 130, n = 120, k = 96;
  const Matrix A = Matrix::random_normal(m, k, rng);
  const Matrix B = Matrix::random_normal(k, n, rng);

  Matrix C0(m, n), C1(m, n);
  reference::gemm(false, false, 1.0, A, B, 0.0, C0);
  gemm(false, false, 1.0, A, B, 0.0, C1);
  ASSERT_LE(rel_err(C1, C0), 1e-10) << "gemm";
}

// Regression for the TSQR row-block reduction tree under real OpenMP
// concurrency (the PR 3/PR 4 bug class: worker-visible state that a 1-core
// container cannot distinguish from correct). The leaf stage and every tree
// level run `omp parallel for` over blocks/pairs; shapes are chosen so the
// tree has several levels *and* odd pass-through nodes, and the R factor
// plus an end-to-end qr analysis are checked against serial ground truth.
// tests/CMakeLists.txt re-runs this suite with OMP_NUM_THREADS=4.
TEST(TsqrTreeRegression, RowBlockTreeWithFourThreads) {
  Rng rng(0x7C4EEULL);
  // 11 blocks of 128 rows (odd count at multiple levels: 11 -> 6 -> 3 -> 2
  // -> 1) with a ragged last block.
  const int m = 128 * 11 + 37, n = 24;
  ASSERT_GE(tsqr_nblocks(m, n), 11);
  const Matrix A = Matrix::random_normal(m, n, rng);
  Matrix qr_ref = A, qr_tsqr = A;
  Vector beta_ref;
  qr_factor_in_place(qr_ref, beta_ref);
  Workspace ws;
  tsqr_factor_r_in_place(qr_tsqr, &ws);
  Matrix R_ref = top_r(qr_ref), R_tsqr = top_r(qr_tsqr);
  normalize_r_signs(R_ref);
  normalize_r_signs(R_tsqr);
  ASSERT_LE(rel_err(R_tsqr, R_ref), 1e-10) << "tree R";

  // End-to-end: an analysis whose stacked panel splits into many row
  // blocks, against the obs-space oracle on the same draws (the tree feeds
  // the triangular solves).
  const int nstate = 96, N = 16, mobs = 1500;
  ASSERT_GE(tsqr_nblocks(mobs + N, N), 11);
  Matrix X(nstate, N), HX(mobs, N);
  for (int c = 0; c < N; ++c) {
    for (int i = 0; i < nstate; ++i) X(i, c) = rng.normal();
    for (int i = 0; i < mobs; ++i)
      HX(i, c) = X(i % nstate, c) + 0.1 * rng.normal();
  }
  Vector d(static_cast<std::size_t>(mobs)), r_std(static_cast<std::size_t>(mobs));
  for (int i = 0; i < mobs; ++i) {
    d[i] = rng.normal();
    r_std[i] = 0.7;
  }
  Matrix Xt = X;
  Rng r1(77);
  wfire::enkf::enkf_analysis(Xt, HX, d, r_std, r1);
  Matrix Xs = X;
  Rng r2(77);
  wfire::enkf::reference::analysis_obs_space(Xs, HX, d, r_std, r2);
  Matrix inc(nstate, N);
  for (int c = 0; c < N; ++c)
    for (int i = 0; i < nstate; ++i) inc(i, c) = Xs(i, c) - X(i, c);
  const double scale = std::max(frobenius_norm(inc), 1e-12);
  ASSERT_LE(max_abs_diff(Xt, Xs) / scale, 1e-8) << "qr vs obs-space analysis";
}
