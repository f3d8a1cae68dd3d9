// Time integration of d(psi)/dt + S ||grad psi|| = 0.
//
// The paper uses Heun's method (RK2) "not for accuracy but conservation":
// explicit Euler systematically overestimates psi and slows or stops the
// fire. Both steppers are provided; bench_abl_integrator reproduces that
// claim quantitatively.
#pragma once

#include "levelset/godunov.h"

namespace wfire::levelset {

struct StepStats {
  double max_speed = 0;  // max S over the grid [m/s]
  double cfl = 0;        // max S * dt / min(dx, dy)
};

// Reusable per-step work arrays. Callers that step in a loop (every fire
// model instance, every serving scenario) hold one of these so steady-state
// stepping performs no heap allocation; the scratch-free overloads below
// construct a transient one per call.
struct StepScratch {
  util::Array2D<double> k1, k2, predictor;
};

// One explicit Euler step: psi -= dt * S .* |grad psi|.
StepStats step_euler(const grid::Grid2D& g, const util::Array2D<double>& speed,
                     double dt, UpwindScheme scheme,
                     util::Array2D<double>& psi);
StepStats step_euler(const grid::Grid2D& g, const util::Array2D<double>& speed,
                     double dt, UpwindScheme scheme, util::Array2D<double>& psi,
                     StepScratch& scratch);

// One Heun (RK2 / trapezoidal predictor-corrector) step:
//   k1 = S|grad psi|, psi* = psi - dt k1,
//   k2 = S|grad psi*|, psi <- psi - dt (k1 + k2) / 2.
StepStats step_heun(const grid::Grid2D& g, const util::Array2D<double>& speed,
                    double dt, UpwindScheme scheme,
                    util::Array2D<double>& psi);
StepStats step_heun(const grid::Grid2D& g, const util::Array2D<double>& speed,
                    double dt, UpwindScheme scheme, util::Array2D<double>& psi,
                    StepScratch& scratch);

}  // namespace wfire::levelset
