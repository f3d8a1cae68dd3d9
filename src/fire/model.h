// The surface fire model: level set propagation + ignition-time tracking +
// post-frontal fuel consumption + heat flux output. This is the "fire" half
// of the paper's coupled model and the model advanced by every ensemble
// member in the assimilation experiments.
//
// State (paper Sec. 3.3): the level set function psi and the ignition time
// tig, "both given as arrays of values associated with grid nodes" — exactly
// the two arrays assimilated by the (morphing) EnKF.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fire/fuel.h"
#include "fire/spread.h"
#include "fire/terrain.h"
#include "levelset/fast_sweep.h"
#include "levelset/front.h"
#include "levelset/initialize.h"
#include "levelset/integrator.h"

namespace wfire::fire {

inline constexpr double kNotIgnited = std::numeric_limits<double>::infinity();

// The assimilable state.
struct FireState {
  util::Array2D<double> psi;  // level set function [m] (signed distance-ish)
  util::Array2D<double> tig;  // ignition time [s], +inf where unburned
  double time = 0;            // model time [s]
};

struct FireModelOptions {
  levelset::UpwindScheme scheme = levelset::UpwindScheme::kPaperRule;
  bool use_heun = true;          // paper default; false = Euler (ablation)
  int reinit_interval = 50;      // redistance psi every N steps (0 = never)
  double min_fuel_frac = 0.02;   // below this the cell no longer spreads fire
};

struct FireOutputs {
  util::Array2D<double> sensible_flux;  // [W/m^2] into the atmosphere
  util::Array2D<double> latent_flux;    // [W/m^2]
  double total_sensible_power = 0;      // domain integral [W]
  double total_latent_power = 0;        // [W]
  levelset::StepStats step;             // CFL diagnostics of the last step
};

class FireModel {
 public:
  FireModel(const grid::Grid2D& g, FuelMap fuel, util::Array2D<double> terrain,
            FireModelOptions opt = {});

  // Sets psi to the signed distance of the ignition union and clears tig.
  // Shapes with time > 0 ignite later: they are excluded from psi until
  // their time arrives (handled in step()).
  void ignite(const std::vector<levelset::Ignition>& ignitions);

  // Advances one step of size dt with the given node winds; returns fluxes.
  // Winds must be node fields on the fire grid [m/s].
  FireOutputs step(double dt, const util::Array2D<double>& wind_u,
                   const util::Array2D<double>& wind_v);

  // Same step, but writes the fluxes into `out`, reusing its arrays when
  // already shaped — the steady-state stepping path allocates nothing
  // (per-step flux allocations used to dominate member-advance profiles).
  void step_into(double dt, const util::Array2D<double>& wind_u,
                 const util::Array2D<double>& wind_v, FireOutputs& out);

  // Convenience: constant ambient wind.
  FireOutputs step_uniform_wind(double dt, double u, double v);
  void step_uniform_wind_into(double dt, double u, double v, FireOutputs& out);

  [[nodiscard]] const grid::Grid2D& grid() const { return grid_; }
  [[nodiscard]] const FireState& state() const { return state_; }
  [[nodiscard]] FireState& state() { return state_; }
  [[nodiscard]] const util::Array2D<double>& fuel_fraction() const {
    return fuel_frac_;
  }
  [[nodiscard]] const FuelMap& fuel() const { return fuel_; }
  [[nodiscard]] const util::Array2D<double>& terrain() const { return terrain_; }
  [[nodiscard]] const FireModelOptions& options() const { return opt_; }

  // Replaces the assimilable state (used by the EnKF update); recomputes the
  // fuel fraction from tig so fluxes stay consistent with the new state.
  void set_state(FireState s);

  // The in-place form of set_state, for batched writers that fill many
  // members' psi and tig through state() in parallel row blocks
  // (core::EnsembleBatch::store, the assimilation cycle's state update):
  // once state().time is set and rows [j0, j1) are rewritten, recomputes
  // those rows' fuel fraction exactly as set_state does.
  void refresh_fuel_fraction(int j0, int j1);

  // Diagnostics.
  [[nodiscard]] double burned_area() const;
  [[nodiscard]] double front_length() const;

  // Redistancing phase, exposed so a batched advance (core/ensemble_batch)
  // keeps the model's step-count cadence across load/store round-trips.
  [[nodiscard]] int steps_since_reinit() const { return steps_since_reinit_; }
  void set_steps_since_reinit(int n) { steps_since_reinit_ = n; }
  // Delayed ignitions still queued (time > 0 shapes): the load/store
  // round-trip for a batched advance, which carries the queue in-batch.
  [[nodiscard]] const std::vector<levelset::Ignition>& pending_ignitions()
      const {
    return pending_;
  }
  void set_pending_ignitions(std::vector<levelset::Ignition> p) {
    pending_ = std::move(p);
  }

 private:
  void update_ignition_times(const util::Array2D<double>& psi_before,
                             double t_before, double dt);
  void apply_pending_ignitions();

  grid::Grid2D grid_;
  FuelMap fuel_;
  util::Array2D<double> terrain_, dzdx_, dzdy_;
  FireModelOptions opt_;
  FireState state_;
  util::Array2D<double> fuel_frac_;  // remaining fuel mass fraction in [0,1]
  std::vector<levelset::Ignition> pending_;  // delayed ignitions
  int steps_since_reinit_ = 0;
  // Scratch buffers reused across steps: the whole steady-state stepping
  // path (spread field, RK2 stage arrays, periodic redistancing, fluxes via
  // step_into) allocates nothing, which is what lets a serving process step
  // many long-lived scenarios without touching the heap.
  util::Array2D<double> speed_, uniform_u_, uniform_v_, psi_before_;
  SpreadScratch spread_scratch_;
  levelset::StepScratch step_scratch_;
  util::Array2D<double> reinit_scratch_;
};

// A scenario's wind at one step: the steady (u, v), plus, when jitter > 0,
// gusts jitter * N(0,1) added to u, then to v, drawn from
// util::Rng::stream(seed, step). A pure function of its arguments, so a
// trajectory does not depend on who steps it: the scenario server and the
// batched sweep (core::EnsembleBatch) both call it.
void gust_wind(double& u, double& v, double jitter, std::uint64_t seed,
               std::uint64_t step);

}  // namespace wfire::fire
