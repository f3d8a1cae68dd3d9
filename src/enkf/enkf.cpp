#include "enkf/enkf.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "enkf/ensemble.h"
#include "la/blas.h"
#include "la/qr.h"
#include "util/omp_compat.h"

namespace wfire::enkf {

namespace {

double rms(const la::Vector& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

// Throws, naming the member and row, on a non-finite entry of M. Such an
// entry makes its row mean non-finite, so only the rows whose mean is not
// finite are scanned: finite inputs cost no pass beyond the mean.
void require_finite(const la::Matrix& M, const la::Vector& row_mean,
                    const char* name) {
  for (int i = 0; i < M.rows(); ++i) {
    if (std::isfinite(row_mean[i])) continue;
    for (int k = 0; k < M.cols(); ++k)
      if (!std::isfinite(M(i, k)))
        throw std::invalid_argument(
            std::string("enkf: non-finite ") + name + " at member " +
            std::to_string(k) + ", row " + std::to_string(i));
  }
}

// The QR square-root solve: with B = R^{-1/2} HA / sqrt(N-1) and
// Stilde = I + B B^T, the Sherman-Morrison-Woodbury identity gives the
// analysis coefficients as the solution of a system in the *smaller* of the
// two dimensions:
//
//   m >= N:  W = B^T Stilde^{-1} Ytilde = (I + B^T B)^{-1} B^T Ytilde,
//   m <  N:  W = B^T (I + B B^T)^{-1} Ytilde directly.
//
// Instead of forming B^T B / B B^T (which would square the condition
// number), the Householder QR of the stacked matrix [B; I_N] (resp.
// [B^T; I_m]) yields an upper-triangular Rs with Rs^T Rs = I + B^T B
// (resp. I + B B^T), so W follows from gemm and two small triangular
// solves. Since Rs^T Rs >= I, every |Rs_ii| >= 1: the solves cannot hit a
// small pivot even for rank-deficient ensembles.
//
// The m-sized work is one pass: in the image regime (m >= N) the scaled
// stack B = R^{-1/2} HA / sqrt(N-1) is built directly from HA into the
// panel (no separate B buffer), the panel's R-factor comes from TSQR (row
// blocks factored in parallel; a panel too short to split is one serial
// leaf), and W = B^T Ytilde is computed from the *unscaled* HA and Y with
// the R^{-1} weighting folded into the gemm's pack step (gemm_scaled).
void analyze_qr(la::Matrix& X, const la::Matrix& A, const la::Matrix& HA,
                la::Matrix& Y, const la::Vector& r_std, la::Workspace& ws) {
  const int N = X.cols();
  const int m = HA.rows();
  const double inv_sqrtn1 = 1.0 / std::sqrt(static_cast<double>(N - 1));
  const int r = std::min(m, N);  // factored system dimension
  la::Matrix& M = ws.mat("ens.M", m + N, r);
  la::Matrix& W = ws.mat("ens.W", N, N);

  // Pack-time weights (m >= N): winv scales rows by R^{-1/2}/sqrt(N-1)
  // while the stack is built; w2 carries the full R^{-1} (both B and Ytilde
  // sides) into the coefficient gemm below.
  la::Vector& w2 = ws.vec("ens.w2", static_cast<std::size_t>(m));
  // Scaled system (m < N only): B and Ytilde, materialized since B^T is
  // stacked and Ytilde is solved in place.
  la::Matrix* B = nullptr;
  la::Matrix* Yt = nullptr;
  if (m >= N) {  // stacked [B; I_N], Rs^T Rs = I + B^T B
    la::Vector& winv = ws.vec("ens.winv", static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      winv[i] = inv_sqrtn1 / r_std[i];
      w2[i] = 1.0 / (r_std[i] * r_std[i]);
    }
    const double* wi = winv.data();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) \
                 if (static_cast<long>(m) * N > 65536))
    for (int k = 0; k < N; ++k) {
      const auto src = HA.col(k);
      auto dst = M.col(k);
      for (int i = 0; i < m; ++i) dst[i] = src[i] * wi[i];
      for (int i = 0; i < N; ++i) dst[m + i] = i == k ? 1.0 : 0.0;
    }
  } else {  // stacked [B^T; I_m], Rs^T Rs = I + B B^T; m < N is small
    B = &ws.mat("ens.B", m, N);
    Yt = &ws.mat("ens.Yt", m, N);
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < m; ++i) (*B)(i, k) = HA(i, k) * inv_sqrtn1 / r_std[i];
    for (int k = 0; k < N; ++k)
      for (int i = 0; i < m; ++i) (*Yt)(i, k) = Y(i, k) / r_std[i];
    for (int k = 0; k < m; ++k) {
      auto dst = M.col(k);
      for (int i = 0; i < N; ++i) dst[i] = (*B)(k, i);
      for (int i = 0; i < m; ++i) dst[N + i] = i == k ? 1.0 : 0.0;
    }
  }

  la::tsqr_factor_r_in_place(M, &ws);

  if (m >= N) {
    // W = B^T Ytilde = HA^T R^{-1} Y / sqrt(N-1), R^{-1} applied at pack
    // time — neither B nor Ytilde is materialized.
    la::gemm_scaled(true, false, inv_sqrtn1, HA, w2, Y, 0.0, W);
    la::rt_solve_in_place(M, W);  // W <- Rs^-T W
    la::r_solve_in_place(M, W);   // W <- Rs^-1 W = (I+B^T B)^-1 B^T Yt
  } else {
    la::rt_solve_in_place(M, *Yt);                // Yt <- Rs^-T Yt
    la::r_solve_in_place(M, *Yt);                 // Yt <- Stilde^-1 Ytilde
    la::gemm(true, false, 1.0, *B, *Yt, 0.0, W);  // W = B^T Stilde^-1 Yt
  }
  la::gemm(false, false, inv_sqrtn1, A, W, 1.0, X);  // X += A W / sqrt(N-1)
}

}  // namespace

namespace detail {

EnKFStats run_analysis(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       util::Rng& rng, const EnKFOptions& opt,
                       const SolveStage& solve) {
  const int n = X.rows();
  const int N = X.cols();
  const int m = HX.rows();
  if (HX.cols() != N) throw std::invalid_argument("enkf: HX column mismatch");
  if (static_cast<int>(d.size()) != m || static_cast<int>(r_std.size()) != m)
    throw std::invalid_argument("enkf: obs size mismatch");
  if (N < 2) throw std::invalid_argument("enkf: need at least 2 members");
  // A non-finite value here would turn every member into NaN silently.
  for (const double r : r_std)
    if (!std::isfinite(r) || r <= 0)
      throw std::invalid_argument("enkf: r_std must be finite and positive");
  for (const double v : d)
    if (!std::isfinite(v))
      throw std::invalid_argument("enkf: observations must be finite");
  if (!std::isfinite(opt.inflation) || opt.inflation <= 0)
    throw std::invalid_argument("enkf: inflation must be finite and positive");

  EnKFStats stats;
  stats.n = n;
  stats.m = m;
  stats.N = N;

  la::Workspace local_ws;
  la::Workspace& ws = opt.workspace ? *opt.workspace : local_ws;

  // Forecast mean, for the increment diagnostic (inflation preserves it, so
  // no copy of the full forecast ensemble is needed).
  la::Vector& mf = ws.vec("mf", static_cast<std::size_t>(n));
  ensemble_mean(X, mf);
  require_finite(X, mf, "X");

  // HX is inflated into a copy and checked before X is inflated, so a
  // rejected input leaves X untouched.
  const la::Matrix* HXi = &HX;
  if (opt.inflation != 1.0) {
    la::Matrix& HXw = ws.mat("HXi", m, N);
    for (int k = 0; k < N; ++k) {
      const auto src = HX.col(k);
      auto dst = HXw.col(k);
      for (int i = 0; i < m; ++i) dst[i] = src[i];
    }
    inflate(HXw, opt.inflation);
    HXi = &HXw;
  }
  la::Vector& hxm = ws.vec("hxm", static_cast<std::size_t>(m));
  ensemble_mean(*HXi, hxm);
  require_finite(HX, hxm, "HX");

  inflate(X, opt.inflation);
  la::Vector& xm = ws.vec("xm", static_cast<std::size_t>(n));
  ensemble_mean(X, xm);
  la::Matrix& A = ws.mat("A", n, N);
  anomalies(X, xm, A);

  la::Matrix& HA = ws.mat("HA", m, N);
  anomalies(*HXi, hxm, HA);

  // Innovations with perturbed observations: Y(:,k) = d + e_k - HX(:,k).
  la::Matrix& Y = ws.mat("Y", m, N);
  for (int k = 0; k < N; ++k) {
    const auto src = HXi->col(k);
    auto dst = Y.col(k);
    for (int i = 0; i < m; ++i)
      dst[i] = d[i] + r_std[i] * rng.normal() - src[i];
  }

  {
    la::Vector& innov = ws.vec("innov", static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) innov[i] = d[i] - hxm[i];
    stats.innovation_rms = rms(innov);
  }

  solve(X, A, HA, Y, r_std, ws);

  {
    la::Vector& ma = ws.vec("ma", static_cast<std::size_t>(n));
    ensemble_mean(X, ma);
    for (int i = 0; i < n; ++i) ma[i] -= mf[i];
    stats.increment_rms = rms(ma);
  }
  return stats;
}

}  // namespace detail

EnKFStats enkf_analysis(la::Matrix& X, const la::Matrix& HX,
                        const la::Vector& d, const la::Vector& r_std,
                        util::Rng& rng, const EnKFOptions& opt) {
  return detail::run_analysis(X, HX, d, r_std, rng, opt, analyze_qr);
}

}  // namespace wfire::enkf
