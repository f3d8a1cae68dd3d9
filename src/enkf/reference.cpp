#include "enkf/reference.h"

#include "la/blas.h"
#include "la/cholesky.h"

namespace wfire::enkf::reference {

namespace {

// S = HA HA^T/(N-1) + R, its Cholesky factor, then one multi-RHS solve for
// all innovation columns at once. Y is consumed in place. S is formed with
// plain serial loops rather than the OpenMP gemm, so the thread that factors
// the m x m matrix also wrote it: under ThreadSanitizer, with an
// uninstrumented OpenMP runtime, every read of a worker-written S would be a
// (suppressed, but slow) race report.
void solve_obs_space(la::Matrix& X, const la::Matrix& A, const la::Matrix& HA,
                     la::Matrix& Y, const la::Vector& r_std,
                     la::Workspace& ws) {
  const int N = X.cols();
  const int m = HA.rows();
  const double inv_n1 = 1.0 / (N - 1);
  la::Matrix& S = ws.mat("obs.S", m, m);
  S.fill(0.0);
  for (int k = 0; k < N; ++k) {
    const auto hk = HA.col(k);
    for (int j = 0; j < m; ++j) {
      const double hjk = hk[j] * inv_n1;
      auto sj = S.col(j);
      for (int i = 0; i < m; ++i) sj[i] += hk[i] * hjk;
    }
  }
  for (int i = 0; i < m; ++i) S(i, i) += r_std[i] * r_std[i];
  la::Matrix& L = ws.mat("obs.L", m, m);
  la::cholesky_factor(S, L);
  la::cholesky_solve_in_place(L, Y);  // Y <- S^{-1} Y
  // X += A HA^T S^{-1} Y / (N-1), associated so that the intermediate is
  // the smaller of W = HA^T S^{-1} Y (N x N) and A HA^T (n x m).
  if (m >= N) {
    la::Matrix& W = ws.mat("obs.W", N, N);
    la::gemm(true, false, 1.0, HA, Y, 0.0, W);
    la::gemm(false, false, inv_n1, A, W, 1.0, X);
  } else {
    la::Matrix& AH = ws.mat("obs.AH", X.rows(), m);
    la::gemm(false, true, 1.0, A, HA, 0.0, AH);
    la::gemm(false, false, inv_n1, AH, Y, 1.0, X);
  }
}

}  // namespace

EnKFStats analysis_obs_space(la::Matrix& X, const la::Matrix& HX,
                             const la::Vector& d, const la::Vector& r_std,
                             util::Rng& rng, const EnKFOptions& opt) {
  return detail::run_analysis(X, HX, d, r_std, rng, opt, solve_obs_space);
}

}  // namespace wfire::enkf::reference
