// The scenario spec and its schema.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fire/model.h"
#include "levelset/initialize.h"
#include "util/hash.h"

namespace wfire::serve {

// Everything that defines a scenario's trajectory. To add a field, declare
// it here and give it one row in the field table in serve/spec.cpp: its
// name, rule, checkpoint meta slot and whether it goes into the product
// key. Validation, the checkpoint meta and the key are generated from it.
struct ScenarioSpec {
  int nx = 101, ny = 101;        // fire-mesh nodes
  double dx = 6.0, dy = 6.0;     // spacing [m] (paper: 6 m)
  double dt = 0.5;               // step [s]
  int fuel_category = 0;         // uniform fuel (fire::kFuelShortGrass...)
  double wind_u = 3.0, wind_v = 0.0;  // ambient wind [m/s]
  double wind_jitter = 0.0;      // per-step gust std [m/s], 0 = steady wind
  std::uint64_t seed = 0;        // gust stream seed (util::Rng::stream)
  // Monte Carlo fuel perturbations (risk::SweepDriver): the whole fuel
  // catalog's moisture M resp. mass-loss e-folding time tau is scaled at
  // admit(). Must be > 0; 1 = the catalog as published.
  double fuel_moisture_scale = 1.0;
  double burn_time_scale = 1.0;
  double realtime_speedup = 0;   // > 0: score advances against sim/speedup
  std::vector<levelset::Ignition> ignitions;  // applied at admit()
  fire::FireModelOptions fire;
};

// Throws std::invalid_argument naming the first field (or ignition) the
// model cannot run.
void validate(const ScenarioSpec& spec);

// Stores the spec in its meta slots, leaving the server's slots alone.
// Ignitions are not meta: they live on in the checkpoint's fields.
void write_meta(const ScenarioSpec& spec, std::span<double> meta);

// Inverse of write_meta for untrusted bytes: each slot is checked against
// its field's rule before it is converted, and the first that fails throws
// std::runtime_error. The spec comes back without ignitions.
[[nodiscard]] ScenarioSpec read_meta(std::span<const double> meta);

// Folds every keyed field into `h` in declaration order; realtime pacing
// only scores deadlines, so it is stored but not keyed.
void hash_spec(util::Fnv1a& h, const ScenarioSpec& spec);

// True when v is an integer in [lo, hi]; a NaN is not.
[[nodiscard]] bool is_integer_in(double v, double lo, double hi);

}  // namespace wfire::serve
