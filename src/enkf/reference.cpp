#include "enkf/reference.h"

#include <cmath>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/svd.h"

namespace wfire::enkf::reference {

namespace {

// S = HA HA^T/(N-1) + R, its Cholesky factor, then one multi-RHS solve for
// all innovation columns at once. Y is consumed in place.
void solve_obs_space(la::Matrix& X, const la::Matrix& A, const la::Matrix& HA,
                     la::Matrix& Y, const la::Vector& r_std,
                     la::Workspace& ws) {
  const int N = X.cols();
  const int m = HA.rows();
  la::Matrix& S = ws.mat("obs.S", m, m);
  la::gemm(false, true, 1.0 / (N - 1), HA, HA, 0.0, S);
  for (int i = 0; i < m; ++i) S(i, i) += r_std[i] * r_std[i];
  la::Matrix& L = ws.mat("obs.L", m, m);
  la::cholesky_factor(S, L);
  la::cholesky_solve_in_place(L, Y);                    // Y <- S^{-1} Y
  la::Matrix& W = ws.mat("obs.W", N, N);
  la::gemm(true, false, 1.0, HA, Y, 0.0, W);            // W = HA^T S^{-1} Y
  la::gemm(false, false, 1.0 / (N - 1), A, W, 1.0, X);  // X += A W/(N-1)
}

// Thin-SVD the scaled anomalies B = U Sigma V^T and use
// Stilde^{-1} y = U (Sigma^2+I)^{-1} U^T y + (y - U U^T y), with
// Stilde = I + B B^T and the innovations scaled as Ytilde = R^{-1/2} Y.
void solve_svd(la::Matrix& X, const la::Matrix& A, const la::Matrix& HA,
               const la::Matrix& Y, const la::Vector& r_std, double rcond,
               la::Workspace& ws) {
  const int N = X.cols();
  const int m = HA.rows();
  const double inv_sqrtn1 = 1.0 / std::sqrt(static_cast<double>(N - 1));
  la::Matrix& B = ws.mat("ens.B", m, N);
  la::Matrix& Yt = ws.mat("ens.Yt", m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) {
      B(i, k) = HA(i, k) * inv_sqrtn1 / r_std[i];
      Yt(i, k) = Y(i, k) / r_std[i];
    }
  const la::SvdResult s = la::svd(B);  // Jacobi SVD allocates internally
  const int r = static_cast<int>(s.sigma.size());
  const double cutoff = s.sigma.empty() ? 0.0 : rcond * s.sigma[0];

  // P = U^T Yt, then scale mode j by (1/(sigma_j^2+1) - 1) with truncated
  // modes contributing nothing, then Yt += U P gives Stilde^{-1} ytilde.
  la::Matrix& P = ws.mat("ens.P", r, N);
  la::gemm(true, false, 1.0, s.U, Yt, 0.0, P);
  la::Vector& coef = ws.vec("ens.coef", static_cast<std::size_t>(r));
  for (int j = 0; j < r; ++j) {
    const double sig = s.sigma[j] <= cutoff ? 0.0 : s.sigma[j];
    coef[j] = 1.0 / (sig * sig + 1.0) - 1.0;
  }
  for (int k = 0; k < N; ++k)
    for (int j = 0; j < r; ++j) P(j, k) *= coef[j];
  la::gemm(false, false, 1.0, s.U, P, 1.0, Yt);

  la::Matrix& W = ws.mat("ens.W", N, N);             // W = B^T Stilde^-1 Yt
  la::gemm(true, false, 1.0, B, Yt, 0.0, W);
  la::gemm(false, false, inv_sqrtn1, A, W, 1.0, X);  // X += A W / sqrt(N-1)
}

}  // namespace

EnKFStats analysis_obs_space(la::Matrix& X, const la::Matrix& HX,
                             const la::Vector& d, const la::Vector& r_std,
                             util::Rng& rng, const EnKFOptions& opt) {
  return detail::run_analysis(X, HX, d, r_std, rng, opt, solve_obs_space);
}

EnKFStats analysis_svd(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       util::Rng& rng, const EnKFOptions& opt, double rcond) {
  return detail::run_analysis(
      X, HX, d, r_std, rng, opt,
      [rcond](la::Matrix& Xa, const la::Matrix& A, const la::Matrix& HA,
              la::Matrix& Y, const la::Vector& r, la::Workspace& ws) {
        solve_svd(Xa, A, HA, Y, r, rcond, ws);
      });
}

}  // namespace wfire::enkf::reference
