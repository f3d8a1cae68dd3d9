// The ensemble Kalman filter (paper Sec. 3.3, after Evensen 2003): the
// stochastic (perturbed-observations) analysis replacing the forecast
// ensemble by linear combinations whose coefficients solve a least-squares
// balance between the change in state and the distance to the data.
//
//   X_a = X_f + (1/(N-1)) A (HA)^T S^{-1} (D - HX),
//   S = (HA)(HA)^T/(N-1) + R,   D = d 1^T + E,  E_k ~ N(0, R),
//
// where A and HA are state and observation anomalies. The analysis has one
// solver for every observation count m, the QR square root: with
// B = R^{-1/2} HA / sqrt(N-1), one TSQR R-factor of the stacked matrix
// [B; I_N] (m >= N) or [B^T; I_m] (m < N) (see la/qr.h), then two
// triangular solves in the smaller of the two dimensions. It never forms
// B^T B, so there is no condition-number squaring, and its cost is
// O(m min(m, N)^2) for any m.
//
// The R^{-1/2} scaling of the anomalies and innovations is fused into the
// stacked-panel build and the pack step of the coefficient gemm
// (gemm_scaled), so the m-sized part of the analysis is one parallel sweep
// plus the factorization — no separate B / Ytilde scaling passes.
//
// An algebraically equivalent analysis, the observation-space Cholesky of
// S, is kept as the oracle in enkf/reference.h (tests only).
#pragma once

#include <functional>

#include "la/matrix.h"
#include "la/workspace.h"
#include "util/rng.h"

namespace wfire::enkf {

struct EnKFOptions {
  double inflation = 1.0;  // multiplicative, pre-analysis; finite, > 0
  // Scratch arena reused across calls; the analysis is allocation-free in
  // steady state when one is supplied (a temporary arena is used otherwise).
  la::Workspace* workspace = nullptr;
};

struct EnKFStats {
  int n = 0, m = 0, N = 0;
  double innovation_rms = 0;  // RMS of d - H(mean) before analysis
  double increment_rms = 0;   // RMS change of the ensemble mean
};

// Stochastic EnKF analysis, in place on X.
//   X  : n x N forecast ensemble (overwritten with the analysis)
//   HX : m x N observed ensemble (observation function of each member)
//   d  : m observations (finite)
//   r_std : m observation error standard deviations (R = diag(r_std^2);
//           finite and > 0)
// Draws the m x N observation perturbations from `rng` (member k = 0..N-1,
// then row) and runs enkf_analysis_from_draws on them. Throws
// std::invalid_argument, before touching X and leaving `rng` as it was, on
// a shape mismatch, N < 2, a non-finite entry of X or HX (the message names
// its member and row), or a d, r_std or opt.inflation outside its range.
EnKFStats enkf_analysis(la::Matrix& X, const la::Matrix& HX,
                        const la::Vector& d, const la::Vector& r_std,
                        util::Rng& rng, const EnKFOptions& opt = {});

// The same analysis on perturbations drawn beforehand: E (m x N) holds the
// standard normal draws, member k's in column k, and is overwritten with the
// perturbed innovations. Drawing E from an rng in enkf_analysis's order
// (draw_perturbations below) gives enkf_analysis's bits, so a caller can
// make the draws while other work runs. E must not be one of the
// analysis's own workspace buffers. Throws as enkf_analysis does (also on
// E's shape), before touching X.
EnKFStats enkf_analysis_from_draws(la::Matrix& X, const la::Matrix& HX,
                                   const la::Vector& d,
                                   const la::Vector& r_std, la::Matrix& E,
                                   const EnKFOptions& opt = {});

// Fills E (already shaped m x N) with standard normal draws in the order
// every stochastic analysis makes them: member k = 0..N-1, then row.
void draw_perturbations(util::Rng& rng, la::Matrix& E);

namespace detail {

// Solver stage of an analysis: adds the analysis increment to X, given the
// state anomalies A (n x N), the observed anomalies HA (m x N) and the
// perturbed innovations Y (m x N, which the stage may overwrite).
using SolveStage = std::function<void(
    la::Matrix& X, const la::Matrix& A, const la::Matrix& HA, la::Matrix& Y,
    const la::Vector& r_std, la::Workspace& ws)>;

// Everything of an analysis but the solve, shared by enkf_analysis and the
// oracles in enkf/reference.h: the input checks, inflation, anomalies, the
// perturbed innovations (built in place in E from its draws) and the
// statistics. The O(n N) and O(m N) passes run in row blocks across the
// OpenMP team; each row sums its members in member order, so the bits do
// not depend on the thread count.
EnKFStats run_analysis(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       la::Matrix& E, const EnKFOptions& opt,
                       const SolveStage& solve);

// Draws E into the workspace (opt.workspace, or a temporary one) and runs
// the analysis above; a rejected call leaves `rng` as it was.
EnKFStats run_analysis(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       util::Rng& rng, const EnKFOptions& opt,
                       const SolveStage& solve);

}  // namespace detail

}  // namespace wfire::enkf
