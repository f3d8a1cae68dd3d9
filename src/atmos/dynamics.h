// Tendency evaluation for WrfLite: upwind advection (flux form for scalars,
// advective form for momentum), buoyancy on w from the potential-temperature
// and moisture perturbations, constant eddy diffusion, surface drag, a
// Rayleigh sponge under the rigid lid, and lateral nudging of the mean state
// toward the ambient profile (the periodic-domain stand-in for inflow BCs).
//
// The fire enters through `theta_src` / `qv_src` (K/s and kg/kg/s per cell),
// which is exactly how the paper inserts heat: "the flux is inserted by
// modifying the temperature and water vapor concentration over a depth of
// many cells, with exponential decay away from the boundary" — the decay
// profile is built by coupling/flux_insertion.
#pragma once

#include "atmos/state.h"

namespace wfire::atmos {

struct DynamicsParams {
  double eddy_viscosity = 5.0;    // nu [m^2/s]
  double eddy_diffusivity = 5.0;  // kappa [m^2/s]
  double drag_coeff = 0.01;       // surface drag Cd (bulk, dimensionless)
  double sponge_start_frac = 0.75; // sponge occupies the top quarter
  double sponge_coeff = 0.05;     // max damping rate [1/s]
  double nudge_coeff = 0.002;     // relaxation of horizontal-mean wind [1/s]
  double gravity = 9.81;          // [m/s^2]
};

struct Tendencies {
  util::Array3D<double> du, dv, dw, dtheta, dqv;

  Tendencies() = default;
  explicit Tendencies(const grid::Grid3D& g)
      : du(g.nx, g.ny, g.nz, 0.0),
        dv(g.nx, g.ny, g.nz, 0.0),
        dw(g.nx, g.ny, g.nz + 1, 0.0),
        dtheta(g.nx, g.ny, g.nz, 0.0),
        dqv(g.nx, g.ny, g.nz, 0.0) {}
};

// Computes all tendencies. `theta_src`/`qv_src` may be null (no fire).
void compute_tendencies(const grid::Grid3D& g, const AmbientProfile& amb,
                        const DynamicsParams& p, const AtmosState& s,
                        const util::Array3D<double>* theta_src,
                        const util::Array3D<double>* qv_src, Tendencies& t);

// state += dt * tendencies (w boundary faces stay pinned at 0).
void apply_tendencies(const grid::Grid3D& g, const Tendencies& t, double dt,
                      AtmosState& s);

}  // namespace wfire::atmos
