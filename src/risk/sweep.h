// Monte Carlo scenario sweep: K Gaussian perturbations of one base
// ScenarioSpec (current observation as the mean, configurable variance —
// the Adhikari et al. transformation, SNIPPETS.md #3), advanced together as
// one core::EnsembleBatch and reduced into a BurnProbabilityGrid.
//
// Reproducibility contract: the whole sweep is a pure function of
// (base, perturbation) — member k's spec comes from the counter-based
// util::Rng::stream(pert.seed, k), and the batch runs full-grid sweeps
// (band_cells = 0), bitwise-equal to stepping each member's FireModel on a
// serve::ScenarioServer. The same sweep at any OpenMP width produces a
// bitwise-identical product; product_key() therefore hashes only the fields
// that determine the product, never the execution knobs.
//
// Threading: run() advances the batch with its OpenMP kernels on the
// calling thread's team. A SweepDriver is single-use-at-a-time (run() is
// not reentrant); the returned grid is an immutable value.
#pragma once

#include <cstdint>

#include "risk/burn_probability.h"
#include "serve/spec.h"

namespace wfire::risk {

// Gaussian perturbation widths around the base spec. Wind perturbs in
// speed/direction space (speed additive in m/s, clamped at 0; direction in
// radians); the fuel scales are lognormal (exp(sigma * z), median 1, always
// positive); ignition centers jitter by an isotropic offset per shape.
// moisture_sigma scales fuel_moisture_scale, which no model reads: it
// changes the product key and not the product.
struct PerturbationSpec {
  double wind_speed_sigma = 0;  // [m/s]
  double wind_dir_sigma = 0;    // [rad]
  double moisture_sigma = 0;    // lognormal sigma on fuel_moisture_scale
  double burn_time_sigma = 0;   // lognormal sigma on burn_time_scale
  double ignition_jitter = 0;   // [m] std of each shape's center offset
  std::uint64_t seed = 0;       // sweep seed (member k = stream(seed, k))
};

struct SweepOptions {
  int members = 64;             // K, the Monte Carlo sample size
  double horizon = 120.0;       // forecast horizon [s] (advance target)
  // Execution knobs — bitwise-irrelevant to the product (see contract):
  int threads = 0;              // OpenMP width (<= 0: the library default)
  // No effect: every sweep runs at `threads`. Kept so callers that still
  // set it compile.
  long inline_cell_steps = 0;
};

// Member k's perturbed spec: a pure function of (base, pert, k). The draw
// order is fixed and independent of which sigmas are zero, so narrowing one
// perturbation axis never reshuffles the others. The member's gust seed is
// derived from the same stream (xor-folded with base.seed), decorrelating
// in-run gusts across members.
[[nodiscard]] serve::ScenarioSpec perturb_member(
    const serve::ScenarioSpec& base, const PerturbationSpec& pert, int k);

// Content hash of everything that determines the product bitwise: the base
// spec's keyed fields (serve::hash_spec), the perturbation, K and the
// horizon. Execution knobs (threads, realtime pacing) are deliberately
// excluded.
[[nodiscard]] std::uint64_t product_key(const serve::ScenarioSpec& base,
                                        const PerturbationSpec& pert,
                                        const SweepOptions& opt);

class SweepDriver {
 public:
  SweepDriver(serve::ScenarioSpec base, PerturbationSpec pert,
              SweepOptions opt = {});

  // Builds the K perturbed members, advances them as one batch to the
  // horizon, folds each member's ignition times into the accumulator, and
  // returns the finalized product (key set). Throws std::invalid_argument
  // if the base spec or a member spec fails serve::validate.
  [[nodiscard]] BurnProbabilityGrid run();

 private:
  serve::ScenarioSpec base_;
  PerturbationSpec pert_;
  SweepOptions opt_;
};

}  // namespace wfire::risk
