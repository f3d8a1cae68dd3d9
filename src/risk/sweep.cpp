#include "risk/sweep.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/ensemble_batch.h"
#include "fire/terrain.h"
#include "util/hash.h"
#include "util/omp_compat.h"
#include "util/rng.h"

namespace wfire::risk {

serve::ScenarioSpec perturb_member(const serve::ScenarioSpec& base,
                                   const PerturbationSpec& pert, int k) {
  if (k < 0) throw std::invalid_argument("perturb_member: k < 0");
  util::Rng rng =
      util::Rng::stream(pert.seed, static_cast<std::uint64_t>(k));
  serve::ScenarioSpec spec = base;

  // Fixed draw order: speed, direction, moisture, burn time, then two
  // offsets per ignition shape, then the gust seed. Every draw happens even
  // at sigma = 0 so zeroing one axis leaves the others' draws unchanged.
  const double z_speed = rng.normal();
  const double z_dir = rng.normal();
  const double z_moist = rng.normal();
  const double z_tau = rng.normal();

  const double speed = std::hypot(base.wind_u, base.wind_v);
  const double dir = std::atan2(base.wind_v, base.wind_u);
  const double speed_k =
      std::max(0.0, speed + pert.wind_speed_sigma * z_speed);
  const double dir_k = dir + pert.wind_dir_sigma * z_dir;
  spec.wind_u = speed_k * std::cos(dir_k);
  spec.wind_v = speed_k * std::sin(dir_k);

  spec.fuel_moisture_scale =
      base.fuel_moisture_scale * std::exp(pert.moisture_sigma * z_moist);
  spec.burn_time_scale =
      base.burn_time_scale * std::exp(pert.burn_time_sigma * z_tau);

  for (levelset::Ignition& ign : spec.ignitions) {
    const double jx = pert.ignition_jitter * rng.normal();
    const double jy = pert.ignition_jitter * rng.normal();
    ign = levelset::shifted(ign, jx, jy);
  }

  spec.seed = base.seed ^ rng.next_u64();
  return spec;
}

std::uint64_t product_key(const serve::ScenarioSpec& base,
                          const PerturbationSpec& pert,
                          const SweepOptions& opt) {
  util::Fnv1a h;
  h.str("wfire.burn_probability.v1");
  serve::hash_spec(h, base);
  h.f64(pert.wind_speed_sigma);
  h.f64(pert.wind_dir_sigma);
  h.f64(pert.moisture_sigma);
  h.f64(pert.burn_time_sigma);
  h.f64(pert.ignition_jitter);
  h.u64(pert.seed);
  h.i32(opt.members);
  h.f64(opt.horizon);
  return h.digest();
}

SweepDriver::SweepDriver(serve::ScenarioSpec base, PerturbationSpec pert,
                         SweepOptions opt)
    : base_(std::move(base)), pert_(pert), opt_(opt) {
  if (opt_.members < 1)
    throw std::invalid_argument("SweepDriver: members < 1");
  if (opt_.horizon <= 0)
    throw std::invalid_argument("SweepDriver: horizon <= 0");
}

BurnProbabilityGrid SweepDriver::run() {
  serve::validate(base_);
  const int members = opt_.members;
  const grid::Grid2D g(base_.nx, base_.ny, base_.dx, base_.dy);
  core::EnsembleBatch batch(
      g, fire::uniform_fuel(base_.nx, base_.ny, base_.fuel_category),
      fire::terrain_flat(g), base_.fire, members, /*band_cells=*/0);
  {
    // Members differ from the base only in wind, fuel scales, ignitions and
    // gust seed; each model is its spec's serve::make_model. The models are
    // freed before the advance (member_tig reads the result).
    std::vector<std::unique_ptr<fire::FireModel>> models;
    models.reserve(static_cast<std::size_t>(members));
    for (int k = 0; k < members; ++k) {
      const serve::ScenarioSpec spec = perturb_member(base_, pert_, k);
      models.push_back(serve::make_model(spec));
      batch.set_member_wind(k, spec.wind_u, spec.wind_v, spec.wind_jitter,
                            spec.seed);
      batch.set_member_burn_time_scale(k, spec.burn_time_scale);
    }
    batch.load(models);
  }
  {
    util::ScopedOmpNumThreads width(opt_.threads);
    batch.advance_to(opt_.horizon, base_.dt);
  }

  BurnProbabilityAccumulator acc(base_.nx, base_.ny, base_.dx, base_.dy,
                                 members, opt_.horizon);
  for (int k = 0; k < members; ++k) acc.add_member(k, batch.member_tig(k));
  BurnProbabilityGrid grid = acc.finalize();
  grid.key = product_key(base_, pert_, opt_);
  return grid;
}

}  // namespace wfire::risk
