// WrfLite: the atmospheric dynamical core standing in for WRF (DESIGN.md
// lists the substitution). Anelastic/Boussinesq equations, RK2 (Heun) time
// stepping over the advection/buoyancy/diffusion tendencies, and a pressure
// projection after each stage enforcing the discrete anelastic constraint
// div(u) = 0 with a geometric multigrid Poisson solver.
//
// The paper's reference configuration (Sec. 2.3) — dt = 0.5 s with a 60 m
// horizontal step — is the default the benches use.
#pragma once

#include <memory>

#include "atmos/dynamics.h"
#include "atmos/multigrid.h"

namespace wfire::atmos {

struct WrfLiteOptions {
  DynamicsParams dynamics;
  MultigridOptions mg;
  bool use_rk2 = true;          // false = forward Euler (substrate ablation)
  double projection_tol = 1e-6; // overrides mg.tol
};

struct WrfLiteStepInfo {
  double cfl = 0;               // advective CFL of the step taken
  double max_div_after = 0;     // residual divergence after projection
  int mg_cycles = 0;            // V-cycles used by the final projection
  double max_w = 0;             // updraft diagnostic [m/s]
};

class WrfLite {
 public:
  WrfLite(const grid::Grid3D& g, const AmbientProfile& amb,
          WrfLiteOptions opt = {});

  // Fire forcing for subsequent steps: potential-temperature and vapor
  // tendencies per cell [K/s], [kg/kg/s]. Pass nullptr to clear. The arrays
  // must outlive the next step() call (the coupler owns them).
  void set_forcing(const util::Array3D<double>* theta_src,
                   const util::Array3D<double>* qv_src);

  WrfLiteStepInfo step(double dt);

  [[nodiscard]] const grid::Grid3D& grid() const { return grid_; }
  [[nodiscard]] const AmbientProfile& ambient() const { return amb_; }
  [[nodiscard]] const AtmosState& state() const { return state_; }
  [[nodiscard]] AtmosState& state() { return state_; }
  [[nodiscard]] double time() const { return time_; }

  // Projects the current velocity onto the divergence-free subspace
  // (also called internally after each RK stage).
  SolveStats project();

 private:
  grid::Grid3D grid_;
  AmbientProfile amb_;
  WrfLiteOptions opt_;
  AtmosState state_;
  double time_ = 0;
  std::unique_ptr<Multigrid> mg_;
  const util::Array3D<double>* theta_src_ = nullptr;
  const util::Array3D<double>* qv_src_ = nullptr;
  // Scratch.
  Tendencies tend1_, tend2_;
  AtmosState predictor_;
  Field3 rhs_, phi_;
  SolveStats last_proj_;
};

}  // namespace wfire::atmos
