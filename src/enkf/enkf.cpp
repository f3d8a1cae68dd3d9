#include "enkf/enkf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

// Rows per block of the ensemble-statistics passes: a block of every
// member's rows (25 members: 400 KB) stays in cache between the pass's mean
// and centring sweeps.
constexpr int kRowBlock = 2048;

// Runs fx(i0, i1) over the row blocks of [0, nx) and fh(i0, i1) over those
// of [0, nh), as one loop across the OpenMP team once the two matrices of N
// columns hold more than 65536 entries (below that, waking the team costs
// more than the pass). Every entry is computed as a serial pass computes it,
// so the bits do not depend on the blocking or the thread count. Neither
// function may throw.
template <typename FX, typename FH>
void for_row_blocks(int nx, int nh, int N, const FX& fx, const FH& fh) {
  const int bx = (nx + kRowBlock - 1) / kRowBlock;
  const int bh = (nh + kRowBlock - 1) / kRowBlock;
  [[maybe_unused]] const bool team =
      bx + bh > 1 && static_cast<long>(nx + nh) * N > 65536;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) if (team))
  for (int b = 0; b < bx + bh; ++b) {
    const int i0 = (b < bx ? b : b - bx) * kRowBlock;
    if (b < bx)
      fx(i0, std::min(nx, i0 + kRowBlock));
    else
      fh(i0, std::min(nh, i0 + kRowBlock));
  }
}

// mean[i0:i1) = the row means of M, each row's members summed in member
// order (the serial mean of tests/serial_reference.h, restricted to the
// rows).
void row_means(const la::Matrix& M, int i0, int i1, double* mean) {
  for (int i = i0; i < i1; ++i) mean[i] = 0.0;
  for (int k = 0; k < M.cols(); ++k) {
    const double* c = M.col(k).data();
    for (int i = i0; i < i1; ++i) mean[i] += c[i];
  }
  const double inv = 1.0 / M.cols();
  for (int i = i0; i < i1; ++i) mean[i] *= inv;
}

// Rows [i0, i1) of dst = mean + f (src - mean), the serial inflation's
// arithmetic; dst may be src.
void inflate_rows(const la::Matrix& src, const double* mean, double f,
                  la::Matrix& dst, int i0, int i1) {
  for (int k = 0; k < src.cols(); ++k) {
    const double* s = src.col(k).data();
    double* o = dst.col(k).data();
    for (int i = i0; i < i1; ++i) o[i] = mean[i] + f * (s[i] - mean[i]);
  }
}

// The QR square-root solve: with B = R^{-1/2} HA / sqrt(N-1) and
// Stilde = I + B B^T, the Sherman-Morrison-Woodbury identity gives the
// analysis coefficients as the solution of a system in the *smaller* of the
// two dimensions:
//
//   m >= N:  W = B^T Stilde^{-1} Ytilde = (I + B^T B)^{-1} B^T Ytilde,
//   m <  N:  W = B^T (I + B B^T)^{-1} Ytilde directly,
//
// and X += A W / sqrt(N-1). For m < N the product is associated as
// (A B^T)(I + B B^T)^{-1} Ytilde, so W (N x N) is never formed.
//
// Instead of forming B^T B / B B^T (which would square the condition
// number), the Householder QR of the stacked matrix [B; I_N] (resp.
// [B^T; I_m]) yields an upper-triangular Rs with Rs^T Rs = I + B^T B
// (resp. I + B B^T), so the increment follows from gemms and two small
// triangular solves. Since Rs^T Rs >= I, every |Rs_ii| >= 1: the solves
// cannot hit a small pivot even for rank-deficient ensembles.
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
    la::Matrix& W = ws.mat("ens.W", N, N);
    la::gemm_scaled(true, false, inv_sqrtn1, HA, w2, Y, 0.0, W);
    la::rt_solve_in_place(M, W);  // W <- Rs^-T W
    la::r_solve_in_place(M, W);   // W <- Rs^-1 W = (I+B^T B)^-1 B^T Yt
    la::gemm(false, false, inv_sqrtn1, A, W, 1.0, X);  // X += A W/sqrt(N-1)
  } else {
    la::rt_solve_in_place(M, *Yt);  // Yt <- Rs^-T Yt
    la::r_solve_in_place(M, *Yt);   // Yt <- Stilde^-1 Ytilde
    // X += (A B^T) Stilde^-1 Ytilde / sqrt(N-1): the n x m product first,
    // so no N x N coefficient matrix is formed (N may be in the thousands).
    la::Matrix& AB = ws.mat("ens.AB", X.rows(), m);
    la::gemm(false, true, 1.0, A, *B, 0.0, AB);
    la::gemm(false, false, inv_sqrtn1, AB, *Yt, 1.0, X);
  }
}

}  // namespace

void draw_perturbations(util::Rng& rng, la::Matrix& E) {
  for (int k = 0; k < E.cols(); ++k)
    for (double& e : E.col(k)) e = rng.normal();
}

namespace detail {

EnKFStats run_analysis(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       la::Matrix& E, const EnKFOptions& opt,
                       const SolveStage& solve) {
  const int n = X.rows();
  const int N = X.cols();
  const int m = HX.rows();
  if (HX.cols() != N) throw std::invalid_argument("enkf: HX column mismatch");
  if (static_cast<int>(d.size()) != m || static_cast<int>(r_std.size()) != m)
    throw std::invalid_argument("enkf: obs size mismatch");
  if (E.rows() != m || E.cols() != N)
    throw std::invalid_argument("enkf: perturbation shape mismatch");
  if (N < 2) throw std::invalid_argument("enkf: need at least 2 members");
  // A non-finite value here would turn every member into NaN silently.
  for (const double r : r_std)
    if (!std::isfinite(r) || r <= 0)
      throw std::invalid_argument("enkf: r_std must be finite and positive");
  for (const double v : d)
    if (!std::isfinite(v))
      throw std::invalid_argument("enkf: observations must be finite");
  const double f = opt.inflation;
  if (!std::isfinite(f) || f <= 0)
    throw std::invalid_argument("enkf: inflation must be finite and positive");

  EnKFStats stats;
  stats.n = n;
  stats.m = m;
  stats.N = N;

  la::Workspace local_ws;
  la::Workspace& ws = opt.workspace ? *opt.workspace : local_ws;

  // Forecast means (mf also serves the increment diagnostic: inflation
  // preserves the mean, so no copy of the forecast ensemble is needed),
  // anomalies and the perturbed innovations Y(:,k) = d + r_std .* E(:,k) -
  // HX(:,k), built in place in E. Without inflation one pass does it all,
  // each row block centred while it is still in cache; what it writes
  // besides the means is discarded if the checks below throw.
  const bool inflated = f != 1.0;
  la::Vector& mf = ws.vec("mf", static_cast<std::size_t>(n));
  la::Vector& hxm = ws.vec("hxm", static_cast<std::size_t>(m));
  la::Matrix& A = ws.mat("A", n, N);
  la::Matrix& HA = ws.mat("HA", m, N);
  const auto center_x = [&](const la::Matrix& Xs, const double* mean, int i0,
                            int i1) {
    for (int k = 0; k < N; ++k) {
      const double* src = Xs.col(k).data();
      double* dst = A.col(k).data();
      for (int i = i0; i < i1; ++i) dst[i] = src[i] - mean[i];
    }
  };
  const auto center_hx = [&](const la::Matrix& HXs, int i0, int i1) {
    for (int k = 0; k < N; ++k) {
      const double* src = HXs.col(k).data();
      double* ha = HA.col(k).data();
      double* y = E.col(k).data();
      for (int i = i0; i < i1; ++i) {
        ha[i] = src[i] - hxm[i];
        y[i] = d[i] + r_std[i] * y[i] - src[i];
      }
    }
  };
  for_row_blocks(
      n, m, N,
      [&](int i0, int i1) {
        row_means(X, i0, i1, mf.data());
        if (!inflated) center_x(X, mf.data(), i0, i1);
      },
      [&](int i0, int i1) {
        row_means(HX, i0, i1, hxm.data());
        if (!inflated) center_hx(HX, i0, i1);
      });
  // A non-finite HX entry makes both its raw and its inflated row mean
  // non-finite, so the raw means flag the same rows either way.
  require_finite(X, mf, "X");
  require_finite(HX, hxm, "HX");

  if (inflated) {
    // X and a copy of HX inflated about their forecast means, then re-meaned
    // (hxm is overwritten block by block) and centred, in a second pass.
    la::Vector& xm = ws.vec("xm", static_cast<std::size_t>(n));
    la::Matrix& HXi = ws.mat("HXi", m, N);
    for_row_blocks(
        n, m, N,
        [&](int i0, int i1) {
          inflate_rows(X, mf.data(), f, X, i0, i1);
          row_means(X, i0, i1, xm.data());
          center_x(X, xm.data(), i0, i1);
        },
        [&](int i0, int i1) {
          inflate_rows(HX, hxm.data(), f, HXi, i0, i1);
          row_means(HXi, i0, i1, hxm.data());
          center_hx(HXi, i0, i1);
        });
  }

  {
    la::Vector& innov = ws.vec("innov", static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) innov[i] = d[i] - hxm[i];
    stats.innovation_rms = rms(innov);
  }

  solve(X, A, HA, E, r_std, ws);

  {
    la::Vector& ma = ws.vec("ma", static_cast<std::size_t>(n));
    for_row_blocks(
        n, 0, N,
        [&](int i0, int i1) {
          row_means(X, i0, i1, ma.data());
          for (int i = i0; i < i1; ++i) ma[i] -= mf[i];
        },
        [](int, int) {});
    stats.increment_rms = rms(ma);
  }
  return stats;
}

EnKFStats run_analysis(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       util::Rng& rng, const EnKFOptions& opt,
                       const SolveStage& solve) {
  la::Workspace local_ws;
  EnKFOptions o = opt;
  if (!o.workspace) o.workspace = &local_ws;
  la::Matrix& E = o.workspace->mat("E", HX.rows(), X.cols());
  const util::Rng before = rng;
  draw_perturbations(rng, E);
  try {
    return run_analysis(X, HX, d, r_std, E, o, solve);
  } catch (...) {
    rng = before;
    throw;
  }
}

}  // namespace detail

EnKFStats enkf_analysis(la::Matrix& X, const la::Matrix& HX,
                        const la::Vector& d, const la::Vector& r_std,
                        util::Rng& rng, const EnKFOptions& opt) {
  return detail::run_analysis(X, HX, d, r_std, rng, opt, analyze_qr);
}

EnKFStats enkf_analysis_from_draws(la::Matrix& X, const la::Matrix& HX,
                                   const la::Vector& d,
                                   const la::Vector& r_std, la::Matrix& E,
                                   const EnKFOptions& opt) {
  return detail::run_analysis(X, HX, d, r_std, E, opt, analyze_qr);
}

}  // namespace wfire::enkf
