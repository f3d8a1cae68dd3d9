// Reference oracles for the EnKF analysis: two algebraically equivalent
// solvers that enkf_analysis (the QR square root) is tested and benched
// against. Each takes enkf_analysis's arguments, makes the same innovation
// draws in the same order and shares its input checks, inflation and
// statistics, so on the same problem and seed the analyses differ only by
// rounding. Only tests and benches include this header; no production code
// path reaches these functions.
#pragma once

#include "enkf/enkf.h"

namespace wfire::enkf::reference {

// Observation-space analysis: S = HA HA^T/(N-1) + R formed with la::gemm,
// its Cholesky factor, then one multi-RHS solve for all innovation columns.
// O(m^3): for a handful of observations (e.g. weather stations) only.
EnKFStats analysis_obs_space(la::Matrix& X, const la::Matrix& HX,
                             const la::Vector& d, const la::Vector& r_std,
                             util::Rng& rng, const EnKFOptions& opt = {});

// Ensemble-space analysis through the thin Jacobi SVD of the scaled
// anomalies B = R^{-1/2} HA / sqrt(N-1); singular values at or below
// rcond * sigma_max are truncated (they contribute nothing).
EnKFStats analysis_svd(la::Matrix& X, const la::Matrix& HX,
                       const la::Vector& d, const la::Vector& r_std,
                       util::Rng& rng, const EnKFOptions& opt = {},
                       double rcond = 1e-10);

}  // namespace wfire::enkf::reference
