// EnKF tests: ensemble statistics, both solver paths against each other and
// against the exact Kalman filter in the linear-Gaussian limit, inflation,
// backend agreement, and a committed golden increment.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "enkf/enkf.h"
#include "enkf/ensemble.h"
#include "enkf/kalman.h"
#include "la/backend.h"
#include "la/blas.h"
#include "la/workspace.h"

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

}  // namespace

TEST(Ensemble, MeanAndAnomalies) {
  Matrix X(2, 3);
  X(0, 0) = 1; X(0, 1) = 2; X(0, 2) = 3;
  X(1, 0) = 4; X(1, 1) = 4; X(1, 2) = 4;
  const Vector m = ensemble_mean(X);
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
  const Matrix A = anomalies(X);
  EXPECT_DOUBLE_EQ(A(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(A(1, 2), 0.0);
}

TEST(Ensemble, InflationPreservesMeanScalesSpread) {
  Rng rng(1);
  Matrix X = gaussian_ensemble(Vector{1.0, 2.0}, 1.0, 50, rng);
  const Vector m0 = ensemble_mean(X);
  const double s0 = spread(X);
  inflate(X, 1.5);
  const Vector m1 = ensemble_mean(X);
  EXPECT_NEAR(m1[0], m0[0], 1e-12);
  EXPECT_NEAR(spread(X), 1.5 * s0, 1e-9);
}

TEST(Ensemble, CovarianceActionMatchesExplicit) {
  Rng rng(2);
  const Matrix X = gaussian_ensemble(Vector(4, 0.0), 2.0, 30, rng);
  const Matrix A = anomalies(X);
  Vector v{1, -1, 2, 0.5};
  const Vector cv = covariance_action(A, v);
  const Matrix P = matmul(A, A, false, true);
  Vector expected(4, 0.0);
  gemv(1.0 / 29.0, P, v, 0.0, expected);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(cv[i], expected[i], 1e-10);
}

TEST(Ensemble, PerturbedEnsembleStatistics) {
  Rng rng(3);
  const Vector base{5.0, -3.0};
  const Matrix X = perturbed_ensemble(base, 2000, 0.7, rng);
  const Vector m = ensemble_mean(X);
  EXPECT_NEAR(m[0], 5.0, 0.06);
  EXPECT_NEAR(spread(X), 0.7, 0.03);
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

class EnKFPathParam : public ::testing::TestWithParam<SolverPath> {};

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

  EnKFOptions opt;
  opt.path = GetParam();
  const EnKFStats stats = enkf_analysis(X, HX, d, r_std, rng, opt);
  EXPECT_EQ(stats.path_used, GetParam());

  KalmanState prior{prior_mean, Matrix::identity(n)};
  for (int i = 0; i < n; ++i) prior.cov(i, i) = prior_std * prior_std;
  const KalmanState post = kalman_update(prior, H, d, r_std);

  const Vector mean = ensemble_mean(X);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(mean[i], post.mean[i], 0.12);
}

INSTANTIATE_TEST_SUITE_P(Paths, EnKFPathParam,
                         ::testing::Values(SolverPath::kObsSpace,
                                           SolverPath::kEnsembleSpace));

TEST(EnKF, BothPathsProduceSameAnalysis) {
  // With identical inputs and the same noise stream, the two algebraically
  // equivalent solver paths must give nearly identical analyses.
  const int n = 20, N = 15, m = 8;
  Rng rng_init(7);
  const Matrix X0 = gaussian_ensemble(Vector(n, 1.0), 1.0, N, rng_init);
  Matrix HX(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) HX(i, k) = X0(i, k);
  const Vector d(m, 2.0);
  const Vector r_std(m, 0.5);

  Matrix X1 = X0, X2 = X0;
  Rng r1(99), r2(99);
  EnKFOptions o1, o2;
  o1.path = SolverPath::kObsSpace;
  o2.path = SolverPath::kEnsembleSpace;
  enkf_analysis(X1, HX, d, r_std, r1, o1);
  enkf_analysis(X2, HX, d, r_std, r2, o2);
  EXPECT_LT(max_abs_diff(X1, X2), 1e-8);
}

TEST(EnKF, AnalysisMovesTowardObservations) {
  Rng rng(8);
  const int n = 6, N = 40;
  Matrix X = gaussian_ensemble(Vector(n, 0.0), 1.0, N, rng);
  Matrix HX = X;
  const Vector d(n, 5.0);
  const Vector r_std(n, 0.1);  // trust the data
  const EnKFStats stats = enkf_analysis(X, HX, d, r_std, rng);
  const Vector mean = ensemble_mean(X);
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
}

TEST(EnKF, AutoPathSwitchesOnObsCount) {
  Rng rng(11);
  const int N = 10;
  Matrix Xs = gaussian_ensemble(Vector(5, 0.0), 1.0, N, rng);
  Matrix HXs = Xs;
  EnKFStats s1 = enkf_analysis(Xs, HXs, Vector(5, 0.0), Vector(5, 1.0), rng);
  EXPECT_EQ(s1.path_used, SolverPath::kObsSpace);  // m = 5 <= 2N
  Matrix Xl = gaussian_ensemble(Vector(50, 0.0), 1.0, N, rng);
  Matrix HXl = Xl;
  EnKFStats s2 = enkf_analysis(Xl, HXl, Vector(50, 0.0), Vector(50, 1.0), rng);
  EXPECT_EQ(s2.path_used, SolverPath::kEnsembleSpace);  // m = 50 > 2N
}

// --- LA backend cross-checks: the analysis must not depend on which kernel
// backend runs it, and the two solver paths must agree on both backends. ---

namespace {

struct BackendProblem {
  Matrix X0, HX;
  Vector d, r_std;
};

BackendProblem backend_problem(int n, int m, int N, unsigned seed) {
  Rng rng(seed);
  BackendProblem p;
  p.X0 = gaussian_ensemble(Vector(n, 1.0), 1.0, N, rng);
  p.HX = Matrix(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) p.HX(i, k) = p.X0(i % n, k);
  p.d = Vector(static_cast<std::size_t>(m), 2.0);
  p.r_std = Vector(static_cast<std::size_t>(m), 0.5);
  return p;
}

Matrix run_analysis(const BackendProblem& p, SolverPath path,
                    wfire::la::Backend be, wfire::la::Workspace* ws = nullptr) {
  wfire::la::ScopedBackend scope(be);
  Matrix X = p.X0;
  Rng rng(321);
  EnKFOptions opt;
  opt.path = path;
  opt.workspace = ws;
  enkf_analysis(X, p.HX, p.d, p.r_std, rng, opt);
  return X;
}

}  // namespace

TEST(EnKFBackend, AnalysisAgreesAcrossBackends) {
  // Sizes straddle the blocked kernels' tile edge in both m and N.
  for (const auto& [n, m, N] : {std::tuple{40, 8, 15}, std::tuple{130, 70, 20},
                                std::tuple{65, 129, 10}}) {
    const BackendProblem p = backend_problem(n, m, N, 77);
    for (const SolverPath path :
         {SolverPath::kObsSpace, SolverPath::kEnsembleSpace}) {
      const Matrix Xb = run_analysis(p, path, wfire::la::Backend::kBlocked);
      const Matrix Xr = run_analysis(p, path, wfire::la::Backend::kReference);
      const double scale = std::max(frobenius_norm(Xr), 1.0);
      EXPECT_LE(max_abs_diff(Xb, Xr) / scale, 1e-10)
          << "n " << n << " m " << m << " N " << N;
    }
  }
}

TEST(EnKFBackend, SolverPathsAgreeOnBothBackends) {
  const BackendProblem p = backend_problem(30, 12, 18, 5);
  for (const auto be :
       {wfire::la::Backend::kBlocked, wfire::la::Backend::kReference}) {
    const Matrix X_obs = run_analysis(p, SolverPath::kObsSpace, be);
    const Matrix X_ens = run_analysis(p, SolverPath::kEnsembleSpace, be);
    EXPECT_LT(max_abs_diff(X_obs, X_ens), 1e-8);
  }
}

TEST(EnKFBackend, WorkspaceReuseGivesIdenticalResults) {
  // Same workspace across repeated analyses of different shapes: results
  // must be bitwise identical to fresh-allocation runs.
  wfire::la::Workspace ws;
  const BackendProblem p1 = backend_problem(50, 10, 12, 31);
  const BackendProblem p2 = backend_problem(24, 40, 8, 32);
  // Warm the arena with the larger problem, then run the smaller one.
  (void)run_analysis(p1, SolverPath::kObsSpace, wfire::la::Backend::kBlocked,
                     &ws);
  const Matrix with_ws = run_analysis(p2, SolverPath::kEnsembleSpace,
                                      wfire::la::Backend::kBlocked, &ws);
  const Matrix without =
      run_analysis(p2, SolverPath::kEnsembleSpace, wfire::la::Backend::kBlocked);
  EXPECT_EQ(max_abs_diff(with_ws, without), 0.0);
}

namespace {

// Committed golden mean increment for the Fig. 2 image-regime ensemble-space
// analysis below (n = 60, m = 400, N = 12, seeds 4242/321), produced by the
// SVD factorization on the reference backend when the QR square-root path
// landed. Pins the full analysis end to end — anomalies, innovation draws,
// factorization, solve, update — not just the kernels; any combination of
// backend x factorization must reproduce it.
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
  const Vector mb = ensemble_mean(X0);

  // rtol with a small atol floor: near-zero components of the increment
  // carry rounding noise from the factorization differences.
  const double rtol = 1e-6, atol = 1e-9;
  for (const Backend be : {Backend::kReference, Backend::kBlocked}) {
    for (const Factorization fact : {Factorization::kSvd, Factorization::kQr}) {
      ScopedBackend scope(be);
      Matrix X = X0;
      Rng rng(321);
      EnKFOptions opt;
      opt.path = SolverPath::kEnsembleSpace;
      opt.factorization = fact;
      const EnKFStats s = enkf_analysis(X, HX, d, r_std, rng, opt);
      EXPECT_NEAR(s.increment_rms, kGoldenIncrementRms,
                  rtol * kGoldenIncrementRms);
      const Vector ma = ensemble_mean(X);
      for (int i = 0; i < n; ++i)
        EXPECT_NEAR(ma[i] - mb[i], kGoldenIncrement[i],
                    rtol * std::abs(kGoldenIncrement[i]) + atol)
            << "component " << i << " backend "
            << (be == Backend::kBlocked ? "blocked" : "reference")
            << " factorization "
            << (fact == Factorization::kQr ? "qr" : "svd");
    }
  }
}
