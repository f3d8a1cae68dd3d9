// EnKF tests: the ensemble spread, the QR square-root analysis against its
// named oracles (enkf/reference.h), against its serial loops bit for bit
// and against the exact Kalman filter in the linear-Gaussian limit, input
// validation, inflation, workspace reuse, allocation-free warm analyses,
// memory linear in N, and a committed golden increment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "alloc_counter.h"
#include "enkf/enkf.h"
#include "enkf/ensemble.h"
#include "enkf/kalman.h"
#include "enkf/reference.h"
#include "la/blas.h"
#include "la/workspace.h"
#include "serial_reference.h"
#include "util/omp_compat.h"

using namespace wfire::enkf;
using namespace wfire::la;
using wfire::util::Rng;

namespace {

// Draws an ensemble from N(mean, var I).
Matrix gaussian_ensemble(const Vector& mean, double std_dev, int N, Rng& rng) {
  const int n = static_cast<int>(mean.size());
  Matrix X(n, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < n; ++i) X(i, k) = mean[i] + std_dev * rng.normal();
  return X;
}

// Row means of X: the ensemble mean of each state coordinate.
Vector mean_of(const Matrix& X) {
  Vector mean;
  serial_reference::ensemble_mean(X, mean);
  return mean;
}

}  // namespace

TEST(Ensemble, InflationPreservesMeanScalesSpread) {
  Rng rng(1);
  Matrix X = gaussian_ensemble(Vector{1.0, 2.0}, 1.0, 50, rng);
  const Vector m0 = mean_of(X);
  const double s0 = spread(X);
  serial_reference::inflate(X, 1.5);
  const Vector m1 = mean_of(X);
  EXPECT_NEAR(m1[0], m0[0], 1e-12);
  EXPECT_NEAR(spread(X), 1.5 * s0, 1e-9);
}

TEST(Kalman, ScalarUpdateMatchesClosedForm) {
  // Prior N(0, 4), obs y = 2 with R = 1 -> posterior mean 1.6, var 0.8.
  KalmanState prior{Vector{0.0}, Matrix(1, 1)};
  prior.cov(0, 0) = 4.0;
  Matrix H = Matrix::identity(1);
  const KalmanState post = kalman_update(prior, H, Vector{2.0}, Vector{1.0});
  EXPECT_NEAR(post.mean[0], 1.6, 1e-12);
  EXPECT_NEAR(post.cov(0, 0), 0.8, 1e-12);
}

TEST(Kalman, ForecastPropagatesCovariance) {
  KalmanState s{Vector{1.0, 0.0}, Matrix::identity(2)};
  Matrix M(2, 2, 0.0);
  M(0, 0) = 2.0;
  M(1, 1) = 0.5;
  const KalmanState f = kalman_forecast(s, M, Matrix(2, 2, 0.0));
  EXPECT_DOUBLE_EQ(f.mean[0], 2.0);
  EXPECT_DOUBLE_EQ(f.cov(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(f.cov(1, 1), 0.25);
}

namespace {

// The analyses under test, by name: the production QR square root and the
// observation-space oracle. The explicit values fix the instantiation names
// (".../4-byte object <01-00 00-00>" and "<02-00 00-00>").
enum class Solver { kObsSpaceOracle = 1, kQr = 2 };

using AnalysisFn = EnKFStats (*)(Matrix&, const Matrix&, const Vector&,
                                 const Vector&, Rng&, const EnKFOptions&);

AnalysisFn analysis_fn(Solver s) {
  return s == Solver::kQr ? enkf_analysis : reference::analysis_obs_space;
}

}  // namespace

class EnKFPathParam : public ::testing::TestWithParam<Solver> {};

TEST_P(EnKFPathParam, ConvergesToKalmanInLinearGaussianLimit) {
  // Large ensemble from a known Gaussian prior, identity obs on part of the
  // state: the EnKF analysis mean must approach the exact KF posterior.
  Rng rng(42);
  const int n = 4;
  const int N = 4000;
  const Vector prior_mean{1.0, 2.0, -1.0, 0.0};
  const double prior_std = 2.0;
  Matrix X = gaussian_ensemble(prior_mean, prior_std, N, rng);

  // Observe coordinates 0 and 2.
  const int m = 2;
  Matrix H(m, n, 0.0);
  H(0, 0) = 1.0;
  H(1, 2) = 1.0;
  const Vector d{3.0, 1.0};
  const Vector r_std{0.5, 0.5};

  Matrix HX(m, N);
  for (int k = 0; k < N; ++k) {
    HX(0, k) = X(0, k);
    HX(1, k) = X(2, k);
  }

  (void)analysis_fn(GetParam())(X, HX, d, r_std, rng, {});

  KalmanState prior{prior_mean, Matrix::identity(n)};
  for (int i = 0; i < n; ++i) prior.cov(i, i) = prior_std * prior_std;
  const KalmanState post = kalman_update(prior, H, d, r_std);

  const Vector mean = mean_of(X);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], post.mean[i], 0.12);
}

INSTANTIATE_TEST_SUITE_P(Paths, EnKFPathParam,
                         ::testing::Values(Solver::kObsSpaceOracle,
                                           Solver::kQr));

TEST(EnKF, BothPathsProduceSameAnalysis) {
  // With identical inputs and the same noise stream, the QR square root and
  // the observation-space oracle are algebraically equivalent and must give
  // nearly identical analyses, for m < N and m >= N alike (the two stack
  // [B^T; I_m] and [B; I_N] respectively) up to just past 2N.
  const int n = 20, N = 15;
  Rng rng_init(7);
  const Matrix X0 = gaussian_ensemble(Vector(n, 1.0), 1.0, N, rng_init);
  for (const int m : {1, N - 1, N, 2 * N, 2 * N + 1}) {
    Matrix HX(m, N);
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < m; ++i) HX(i, k) = X0(i % n, k);
    const Vector d(static_cast<std::size_t>(m), 2.0);
    const Vector r_std(static_cast<std::size_t>(m), 0.5);

    Matrix X1 = X0, X2 = X0;
    Rng r1(99), r2(99);
    reference::analysis_obs_space(X1, HX, d, r_std, r1);
    enkf_analysis(X2, HX, d, r_std, r2);
    EXPECT_LT(max_abs_diff(X1, X2), 1e-8) << "m " << m;
  }
}

TEST(EnKF, AnalysisMovesTowardObservations) {
  Rng rng(8);
  const int n = 6, N = 40;
  Matrix X = gaussian_ensemble(Vector(n, 0.0), 1.0, N, rng);
  Matrix HX = X;
  const Vector d(n, 5.0);
  const Vector r_std(n, 0.1);  // trust the data
  const EnKFStats stats = enkf_analysis(X, HX, d, r_std, rng);
  const Vector mean = mean_of(X);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], 5.0, 0.6);
  EXPECT_GT(stats.innovation_rms, 4.0);
  EXPECT_GT(stats.increment_rms, 4.0);
}

TEST(EnKF, AnalysisShrinksSpread) {
  Rng rng(9);
  const int n = 4, N = 60;
  Matrix X = gaussian_ensemble(Vector(n, 0.0), 2.0, N, rng);
  Matrix HX = X;
  const double s0 = spread(X);
  enkf_analysis(X, HX, Vector(n, 0.0), Vector(n, 0.5), rng);
  EXPECT_LT(spread(X), s0);
}

TEST(EnKF, InputValidation) {
  Rng rng(10);
  Matrix X(4, 5), HX(2, 5);
  EXPECT_THROW(enkf_analysis(X, Matrix(2, 4), Vector(2), Vector(2), rng),
               std::invalid_argument);
  EXPECT_THROW(enkf_analysis(X, HX, Vector(3), Vector(2), rng),
               std::invalid_argument);
  EXPECT_THROW(enkf_analysis(X, HX, Vector(2), Vector(2, -1.0), rng),
               std::invalid_argument);
  Matrix X1(4, 1), HX1(2, 1);
  EXPECT_THROW(enkf_analysis(X1, HX1, Vector(2), Vector(2, 1.0), rng),
               std::invalid_argument);

  // Non-finite or non-positive values are rejected before any work; left
  // through, each one turns members into NaN or inf. m = 2 < N and m = 11 > 2N
  // cover both stacked-panel shapes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng init(11);
  const Matrix X0 = gaussian_ensemble(Vector(4, 0.0), 1.0, 5, init);
  for (const int m : {2, 11}) {
    Matrix HXm(m, 5);
    for (int k = 0; k < 5; ++k)
      for (int i = 0; i < m; ++i) HXm(i, k) = X0(i % 4, k);
    const Vector d(static_cast<std::size_t>(m), 0.5);
    const Vector r(static_cast<std::size_t>(m), 1.0);
    const auto expect_rejected = [&](const Matrix& Xin, const Matrix& HXin,
                                     const Vector& dv, const Vector& rv,
                                     double inflation, const char* what) {
      Matrix Xc = Xin;
      EnKFOptions opt;
      opt.inflation = inflation;
      EXPECT_THROW(enkf_analysis(Xc, HXin, dv, rv, rng, opt),
                   std::invalid_argument)
          << what << ", m " << m;
      // Bitwise: a NaN in Xin never compares equal to itself.
      EXPECT_EQ(std::memcmp(Xc.data(), Xin.data(), sizeof(double) * 4 * 5), 0)
          << what << " touched X, m " << m;
    };
    Vector r_bad = r;
    r_bad[m - 1] = nan;
    expect_rejected(X0, HXm, d, r_bad, 1.0, "r_std NaN");
    r_bad[m - 1] = inf;
    expect_rejected(X0, HXm, d, r_bad, 1.0, "r_std +inf");
    Vector d_bad = d;
    d_bad[0] = nan;
    expect_rejected(X0, HXm, d_bad, r, 1.0, "d NaN");
    d_bad[0] = -inf;
    expect_rejected(X0, HXm, d_bad, r, 1.0, "d -inf");
    expect_rejected(X0, HXm, d, r, nan, "inflation NaN");
    expect_rejected(X0, HXm, d, r, inf, "inflation +inf");
    expect_rejected(X0, HXm, d, r, 0.0, "inflation 0");
    expect_rejected(X0, HXm, d, r, -1.0, "inflation -1");
    // A non-finite forecast or observed member, with and without inflation
    // (which copies HX before the check).
    for (const double infl : {1.0, 1.1}) {
      Matrix HX_bad = HXm;
      HX_bad(m - 1, 3) = nan;
      expect_rejected(X0, HX_bad, d, r, infl, "HX NaN");
      HX_bad(m - 1, 3) = -inf;
      expect_rejected(X0, HX_bad, d, r, infl, "HX -inf");
      Matrix X_bad = X0;
      X_bad(2, 1) = nan;
      expect_rejected(X_bad, HXm, d, r, infl, "X NaN");
      X_bad(2, 1) = inf;
      expect_rejected(X_bad, HXm, d, r, infl, "X +inf");
    }
    // The message names the offending member and row, and the rejected
    // call leaves the rng where it was (its draws come before the checks
    // that need the ensemble means).
    Matrix HX_bad = HXm;
    HX_bad(m - 1, 3) = nan;
    Matrix Xc = X0;
    Rng before = rng;
    try {
      enkf_analysis(Xc, HX_bad, d, r, rng);
      ADD_FAILURE() << "HX NaN not rejected, m " << m;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "HX at member 3, row " + std::to_string(m - 1)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(rng.next_u64(), before.next_u64()) << "m " << m;
  }
}

// --- Oracle agreement and workspace reuse. ---

namespace {

struct AnalysisProblem {
  Matrix X0, HX;
  Vector d, r_std;
};

AnalysisProblem analysis_problem(int n, int m, int N, unsigned seed) {
  Rng rng(seed);
  AnalysisProblem p;
  p.X0 = gaussian_ensemble(Vector(n, 1.0), 1.0, N, rng);
  p.HX = Matrix(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) p.HX(i, k) = p.X0(i % n, k);
  p.d = Vector(static_cast<std::size_t>(m), 2.0);
  p.r_std = Vector(static_cast<std::size_t>(m), 0.5);
  return p;
}

Matrix run_analysis(const AnalysisProblem& p, AnalysisFn analysis,
                    wfire::la::Workspace* ws = nullptr) {
  Matrix X = p.X0;
  Rng rng(321);
  EnKFOptions opt;
  opt.workspace = ws;
  analysis(X, p.HX, p.d, p.r_std, rng, opt);
  return X;
}

}  // namespace

TEST(EnKFBackend, SolverPathsAgreeOnBothBackends) {
  // The oracle and the QR square root share one arena, as a test driving
  // both in turn would: neither may read the other's scratch.
  wfire::la::Workspace ws;
  const AnalysisProblem p = analysis_problem(30, 12, 18, 5);
  const Matrix X_obs = run_analysis(p, reference::analysis_obs_space, &ws);
  const Matrix X_qr = run_analysis(p, enkf_analysis, &ws);
  EXPECT_LT(max_abs_diff(X_obs, X_qr), 1e-8);
}

TEST(EnKFBackend, WorkspaceReuseGivesIdenticalResults) {
  // Same workspace across repeated analyses of different shapes: results
  // must be bitwise identical to fresh-allocation runs.
  wfire::la::Workspace ws;
  const AnalysisProblem p1 = analysis_problem(50, 10, 12, 31);
  const AnalysisProblem p2 = analysis_problem(24, 40, 8, 32);
  // Warm the arena with the larger problem (m < N: the [B^T; I_m] stack),
  // then run the smaller one (m >= N: the [B; I_N] stack).
  (void)run_analysis(p1, enkf_analysis, &ws);
  const Matrix with_ws = run_analysis(p2, enkf_analysis, &ws);
  const Matrix without = run_analysis(p2, enkf_analysis);
  EXPECT_EQ(max_abs_diff(with_ws, without), 0.0);
}

// enkf.h promises that a warm analysis with a workspace allocates nothing,
// from an rng or from perturbations drawn beforehand. m = 10 < N runs the
// [B^T; I_m] stack; m = 40 is a single TSQR leaf and m = 200 splits into
// row blocks.
TEST(EnKFBackend, WarmAnalysisWithWorkspaceAllocatesNothing) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const int n = 2000, N = 25;
  for (const int m : {10, 40, 200}) {
    const AnalysisProblem p = analysis_problem(n, m, N, 41);
    wfire::la::Workspace ws;
    EnKFOptions opt;
    opt.workspace = &ws;
    Matrix X = p.X0;
    Rng rng(321);
    enkf_analysis(X, p.HX, p.d, p.r_std, rng, opt);  // warm-up
    X = p.X0;
    EXPECT_EQ(count_allocs([&] {
                enkf_analysis(X, p.HX, p.d, p.r_std, rng, opt);
              }),
              0)
        << "m " << m;
    Matrix E(m, N);
    X = p.X0;
    EXPECT_EQ(count_allocs([&] {
                draw_perturbations(rng, E);
                enkf_analysis_from_draws(X, p.HX, p.d, p.r_std, E, opt);
              }),
              0)
        << "from draws, m " << m;
  }
#endif
}

// With few observations and a large ensemble (m < N) the analysis works in
// O((n + m) N) memory: the increment is (A B^T) times the solved
// innovations, and no N x N coefficient matrix (128 MB at N = 4000) is
// requested. The first call warms the gemm's per-thread panels.
TEST(EnKFBackend, FewObservationsLargeEnsembleAllocatesLinearly) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const int n = 4, m = 2, N = 4000;
  const AnalysisProblem p = analysis_problem(n, m, N, 43);
  Matrix X = p.X0;
  Rng rng(321);
  enkf_analysis(X, p.HX, p.d, p.r_std, rng);
  const std::size_t bound = sizeof(double) * (n + m) * N;
  for (const bool oracle : {false, true}) {
    X = p.X0;
    const std::size_t largest = largest_alloc([&] {
      if (oracle)
        reference::analysis_obs_space(X, p.HX, p.d, p.r_std, rng);
      else
        enkf_analysis(X, p.HX, p.d, p.r_std, rng);
    });
    EXPECT_GT(largest, 0u);
    EXPECT_LE(largest, bound) << (oracle ? "obs-space oracle" : "qr");
  }
#endif
}

// Bitwise oracle for the parallel analysis: the ensemble statistics, the
// in-place innovations and the column-split coefficient product must give
// the serial loops' bits (tests/serial_reference.h, draws made inside the
// analysis) at OpenMP widths 1, 2 and 4, with and without inflation, from
// an rng (and at width 4 from perturbations drawn beforehand), and leave
// the rng where the serial analysis leaves it. The shape is the cycle's
// regime (m >= N, N = 25) with two row blocks each of X and HX, a split
// coefficient product, several X += A W tile rows and a multi-block TSQR,
// and no larger: under ThreadSanitizer every entry handed across an
// (uninstrumented) OpenMP join costs a suppressed report.
TEST(EnKFBitwise, AnalysisMatchesSerialLoops) {
  const int n = 2100, m = 2100, N = 25;
  Rng gen(2202);
  const Matrix X0 = gaussian_ensemble(Vector(n, 1.0), 1.0, N, gen);
  Matrix HX(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) HX(i, k) = X0(i, k) + 0.1 * gen.normal();
  Vector d(static_cast<std::size_t>(m)), r_std(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    d[i] = 1.0 + 0.5 * std::sin(0.01 * i);
    r_std[i] = 0.3 + 0.2 * (i % 7);
  }
  const auto same = [](const Matrix& a, const Matrix& b) {
    return std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
  };
  for (const double inflation : {1.0, 1.1}) {
    Matrix want = X0;
    Rng r_want(77);
    serial_reference::enkf_analysis(want, HX, d, r_std, r_want, inflation);
    const std::uint64_t next = r_want.next_u64();
    for (const int width : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "inflation " << inflation << " width " << width);
      wfire::util::ScopedOmpNumThreads omp(width);
      wfire::la::Workspace ws;
      EnKFOptions opt;
      opt.inflation = inflation;
      opt.workspace = &ws;
      Matrix X = X0;
      Rng rng(77);
      enkf_analysis(X, HX, d, r_std, rng, opt);
      EXPECT_TRUE(same(X, want)) << "from rng";
      EXPECT_EQ(rng.next_u64(), next) << "from rng";

      if (width != 4) continue;
      X = X0;
      Rng r_draw(77);
      Matrix E(m, N);
      draw_perturbations(r_draw, E);
      enkf_analysis_from_draws(X, HX, d, r_std, E, opt);
      EXPECT_TRUE(same(X, want)) << "from draws";
      EXPECT_EQ(r_draw.next_u64(), next) << "from draws";
    }
  }
}

namespace {

// Committed golden mean increment for the Fig. 2 image-regime ensemble-space
// analysis below (n = 60, m = 400, N = 12, seeds 4242/321), produced by a
// Jacobi-SVD factorization on the naive reference kernels when the QR
// square-root path landed. Pins the full analysis end to end — anomalies,
// innovation draws, factorization, solve, update — not just the kernels;
// the QR square root and the observation-space oracle must both reproduce
// it.
constexpr double kGoldenIncrementRms = 0.26916308926474586;
constexpr double kGoldenIncrement[60] = {
    -0.083778640138027133, 0.51818798228387564, -0.084693832259294249,
    0.35294993143109965, 0.21211254123030815, 0.27337071531650614,
    -0.088855648431599099, -0.47334425859603863, -0.2139760313357093,
    -0.20776751723687353, -0.44985496896572086, 0.34543700576721464,
    -0.13725696108357396, -0.11517730155282502, 0.46605989997990638,
    -0.11358204001075206, -0.15676392407740802, 0.46478937699563605,
    -0.011982505471240246, 0.099314776228547855, 0.20678895060299701,
    0.16795638166332794, -0.18208142512350189, 0.22613863784123528,
    0.0075753796717322741, 0.50480831136033788, 0.12469666741210053,
    0.015527664511309575, 0.016335864518790655, 0.20606613469128804,
    0.30223446882182242, 0.44051752839306124, -0.2363670628342775,
    0.26760818174314027, -0.22078918171557227, -0.033723108799013635,
    0.09927023598644158, 0.25919875717244029, -0.21151489213594254,
    -0.032814510764777566, -0.26941245319384588, -0.47574519194360659,
    -0.10494086147823764, 0.27620090042487377, 0.075860858580130697,
    0.26161354444811646, 0.023652169330544523, 0.66038429013037803,
    -0.24250374828559901, 0.55841078686088785, -0.44063859750625389,
    -0.043363917705992475, 0.062718645690130317, -0.073205305204638971,
    -0.064787026811078507, 0.036765374095607761, 0.24489093355507419,
    0.24571379571433472, -0.10307580362092778, 0.025047083554149391};

}  // namespace

TEST(EnKFGolden, EnsembleSpaceIncrementMatchesCommittedVector) {
  const int n = 60, m = 400, N = 12;
  Rng gen(4242);
  Matrix X0(n, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < n; ++i) X0(i, k) = gen.normal();
  Matrix HX(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) HX(i, k) = X0(i % n, k) + 0.1 * gen.normal();
  Vector d(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) d[i] = 1.0 + 0.5 * std::sin(0.05 * i);
  const Vector r_std(static_cast<std::size_t>(m), 0.5);
  const Vector mb = mean_of(X0);

  // rtol with a small atol floor: near-zero components of the increment
  // carry rounding noise from the factorization differences.
  const double rtol = 1e-6, atol = 1e-9;
  for (const bool oracle : {true, false}) {
    Matrix X = X0;
    Rng rng(321);
    const EnKFStats s =
        oracle ? reference::analysis_obs_space(X, HX, d, r_std, rng)
               : enkf_analysis(X, HX, d, r_std, rng);
    EXPECT_NEAR(s.increment_rms, kGoldenIncrementRms,
                rtol * kGoldenIncrementRms);
    const Vector ma = mean_of(X);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(ma[i] - mb[i], kGoldenIncrement[i],
                  rtol * std::abs(kGoldenIncrement[i]) + atol)
          << "component " << i << (oracle ? " obs-space oracle" : " qr");
  }
}
