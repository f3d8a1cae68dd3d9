// Reference oracle for the EnKF analysis: an algebraically equivalent
// solver that enkf_analysis (the QR square root) is tested against. It
// takes enkf_analysis's arguments, makes the same innovation draws in the
// same order and shares its input checks, inflation and statistics, so on
// the same problem and seed the two analyses differ only by rounding. Only
// tests include this header; no production code path reaches it.
#pragma once

#include "enkf/enkf.h"

namespace wfire::enkf::reference {

// Observation-space analysis: S = HA HA^T/(N-1) + R, its Cholesky factor,
// then one multi-RHS solve for all innovation columns.
// The serial Cholesky is O(m^3), so m in the low thousands is its practical
// limit.
EnKFStats analysis_obs_space(la::Matrix& X, const la::Matrix& HX,
                             const la::Vector& d, const la::Vector& r_std,
                             util::Rng& rng, const EnKFOptions& opt = {});

}  // namespace wfire::enkf::reference
