// The ensemble Kalman filter (paper Sec. 3.3, after Evensen 2003): the
// stochastic (perturbed-observations) analysis replacing the forecast
// ensemble by linear combinations whose coefficients solve a least-squares
// balance between the change in state and the distance to the data.
//
//   X_a = X_f + (1/(N-1)) A (HA)^T S^{-1} (D - HX),
//   S = (HA)(HA)^T/(N-1) + R,   D = d 1^T + E,  E_k ~ N(0, R),
//
// where A and HA are state and observation anomalies. Two algebraically
// equivalent solver paths are provided:
//  - observation space: Cholesky of the m x m matrix S (best when m is
//    small, e.g. weather stations);
//  - ensemble space: an N x N square-root system derived from
//    B = R^{-1/2} HA / sqrt(N-1), cost O(m N^2) (best when m >> N, e.g.
//    infrared image observations). It is solved by the QR square-root form:
//    one TSQR R-factor of the stacked (m+N) x N matrix [B; I] (see
//    la/qr.h), then two N x N triangular solves — never forms B^T B, so no
//    condition-number squaring. The thin Jacobi SVD of B is kept as the
//    property-tested reference (Factorization::kSvd, selected explicitly).
//
// The R^{-1/2} scaling of the anomalies and innovations is fused into the
// stacked-panel build and the pack step of the coefficient gemm
// (gemm_scaled), so the m-sized part of the analysis is one parallel sweep
// plus the factorization — no separate B / Ytilde scaling passes.
#pragma once

#include <string>

#include "la/matrix.h"
#include "la/workspace.h"
#include "util/rng.h"

namespace wfire::enkf {

enum class SolverPath { kAuto, kObsSpace, kEnsembleSpace };

// Factorization of the ensemble-space system: the QR square root, or the
// Jacobi-SVD reference.
enum class Factorization { kQr, kSvd };

struct EnKFOptions {
  double inflation = 1.0;        // multiplicative, applied pre-analysis
  SolverPath path = SolverPath::kAuto;
  Factorization factorization = Factorization::kQr;  // ensemble path
  double svd_rcond = 1e-10;      // pseudo-inverse cutoff (svd factorization)
  // Scratch arena reused across calls; the analysis is allocation-free in
  // steady state when one is supplied (a temporary arena is used otherwise).
  la::Workspace* workspace = nullptr;
};

struct EnKFStats {
  SolverPath path_used = SolverPath::kObsSpace;
  int n = 0, m = 0, N = 0;
  double innovation_rms = 0;  // RMS of d - H(mean) before analysis
  double increment_rms = 0;   // RMS change of the ensemble mean
};

// Stochastic EnKF analysis, in place on X.
//   X  : n x N forecast ensemble (overwritten with the analysis)
//   HX : m x N observed ensemble (observation function of each member)
//   d  : m observations
//   r_std : m observation error standard deviations (R = diag(r_std^2))
EnKFStats enkf_analysis(la::Matrix& X, const la::Matrix& HX,
                        const la::Vector& d, const la::Vector& r_std,
                        util::Rng& rng, const EnKFOptions& opt = {});

}  // namespace wfire::enkf
