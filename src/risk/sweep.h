// Monte Carlo scenario sweep over the scenario server: K Gaussian
// perturbations of one base ScenarioSpec (current observation as the mean,
// configurable variance — the Adhikari et al. transformation, SNIPPETS.md
// #3), admitted as a fleet to one serve::ScenarioServer and reduced into a
// BurnProbabilityGrid as members finish.
//
// Reproducibility contract: the whole sweep is a pure function of
// (base, perturbation) — member k's spec comes from the counter-based
// util::Rng::stream(pert.seed, k), its trajectory from the server's own
// pure-function-of-spec contract, and the reduction is arrival-order-free.
// The same sweep on any pool width, admission threshold, or thread count
// produces a bitwise-identical product; product_key() therefore hashes only
// the fields that determine the product, never the execution knobs.
//
// Threading: run() owns a private server fleet for its duration; member
// reductions happen on serving threads via completion hooks. A SweepDriver
// is single-use-at-a-time (run() is not reentrant); the returned grid is an
// immutable value.
#pragma once

#include <cstdint>

#include "risk/burn_probability.h"
#include "serve/scenario_server.h"

namespace wfire::risk {

// Gaussian perturbation widths around the base spec. Wind perturbs in
// speed/direction space (speed additive in m/s, clamped at 0; direction in
// radians); the fuel scales are lognormal (exp(sigma * z), median 1, always
// positive); ignition centers jitter by an isotropic offset per shape.
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
  int threads = 0;              // server pool width (<= 0: hardware)
  long inline_cell_steps = -1;  // < 0: ServerOptions default
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
// horizon. Execution knobs (threads, admission threshold, realtime pacing)
// are deliberately excluded.
[[nodiscard]] std::uint64_t product_key(const serve::ScenarioSpec& base,
                                        const PerturbationSpec& pert,
                                        const SweepOptions& opt);

class SweepDriver {
 public:
  SweepDriver(serve::ScenarioSpec base, PerturbationSpec pert,
              SweepOptions opt = {});

  // Admits the K perturbed scenarios to a private server, advances them all
  // to the horizon, folds each finished member into the accumulator from
  // its completion hook, and returns the finalized product (key set).
  // Throws if any member scenario fails.
  [[nodiscard]] BurnProbabilityGrid run();

  // Admission split of the last run() (how the fleet was served).
  [[nodiscard]] long last_inline() const { return last_inline_; }
  [[nodiscard]] long last_pooled() const { return last_pooled_; }

 private:
  serve::ScenarioSpec base_;
  PerturbationSpec pert_;
  SweepOptions opt_;
  long last_inline_ = 0, last_pooled_ = 0;
};

}  // namespace wfire::risk
