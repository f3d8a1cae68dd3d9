#include "fire/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace wfire::fire {

FireModel::FireModel(const grid::Grid2D& g, FuelMap fuel,
                     util::Array2D<double> terrain, FireModelOptions opt)
    : grid_(g),
      fuel_(std::move(fuel)),
      terrain_(std::move(terrain)),
      opt_(opt) {
  if (fuel_.index.nx() != g.nx || fuel_.index.ny() != g.ny)
    throw std::invalid_argument("FireModel: fuel map does not match grid");
  if (terrain_.nx() != g.nx || terrain_.ny() != g.ny)
    throw std::invalid_argument("FireModel: terrain does not match grid");
  terrain_gradient(grid_, terrain_, dzdx_, dzdy_);
  const double far = g.width() + g.height();
  state_.psi = util::Array2D<double>(g.nx, g.ny, far);
  state_.tig = util::Array2D<double>(g.nx, g.ny, kNotIgnited);
  fuel_frac_ = util::Array2D<double>(g.nx, g.ny, 1.0);
}

void FireModel::ignite(const std::vector<levelset::Ignition>& ignitions) {
  std::vector<levelset::Ignition> now;
  pending_.clear();
  for (const auto& ign : ignitions) {
    if (levelset::ignition_time(ign) <= state_.time)
      now.push_back(ign);
    else
      pending_.push_back(ign);
  }
  if (!now.empty()) {
    levelset::initialize_signed_distance(grid_, now, state_.psi);
    for (int j = 0; j < grid_.ny; ++j)
      for (int i = 0; i < grid_.nx; ++i)
        if (state_.psi(i, j) < 0 && state_.tig(i, j) == kNotIgnited)
          state_.tig(i, j) = state_.time;
  }
}

void FireModel::apply_pending_ignitions() {
  std::vector<levelset::Ignition> due;
  std::vector<levelset::Ignition> later;
  for (const auto& ign : pending_) {
    if (levelset::ignition_time(ign) <= state_.time)
      due.push_back(ign);
    else
      later.push_back(ign);
  }
  pending_ = std::move(later);
  if (due.empty()) return;
  util::Array2D<double> psi_new;
  levelset::initialize_signed_distance(grid_, due, psi_new);
  for (int j = 0; j < grid_.ny; ++j)
    for (int i = 0; i < grid_.nx; ++i) {
      if (psi_new(i, j) < state_.psi(i, j)) state_.psi(i, j) = psi_new(i, j);
      if (state_.psi(i, j) < 0 && state_.tig(i, j) == kNotIgnited)
        state_.tig(i, j) = state_.time;
    }
}

void FireModel::update_ignition_times(const util::Array2D<double>& psi_before,
                                      double t_before, double dt) {
  for (int j = 0; j < grid_.ny; ++j) {
    for (int i = 0; i < grid_.nx; ++i) {
      if (state_.tig(i, j) != kNotIgnited) continue;
      if (state_.psi(i, j) >= 0) continue;
      // The node ignited during this step; linear-in-time crossing estimate.
      const double before = psi_before(i, j);
      const double after = state_.psi(i, j);
      const double denom = before - after;
      const double frac =
          denom > 1e-300 ? std::clamp(before / denom, 0.0, 1.0) : 1.0;
      state_.tig(i, j) = t_before + frac * dt;
    }
  }
}

FireOutputs FireModel::step(double dt,
                            const util::Array2D<double>& wind_u,
                            const util::Array2D<double>& wind_v) {
  FireOutputs out;
  step_into(dt, wind_u, wind_v, out);
  return out;
}

void FireModel::step_into(double dt, const util::Array2D<double>& wind_u,
                          const util::Array2D<double>& wind_v,
                          FireOutputs& out) {
  if (dt <= 0) throw std::invalid_argument("FireModel::step: dt <= 0");
  apply_pending_ignitions();

  SpreadInputs in;
  in.wind_u = &wind_u;
  in.wind_v = &wind_v;
  in.dzdx = &dzdx_;
  in.dzdy = &dzdy_;
  spread_field(grid_, state_.psi, fuel_, in, fuel_frac_, opt_.min_fuel_frac,
               speed_, spread_scratch_);

  if (!psi_before_.same_shape(state_.psi))
    psi_before_ = util::Array2D<double>(grid_.nx, grid_.ny);
  std::copy(state_.psi.begin(), state_.psi.end(), psi_before_.begin());
  const double t_before = state_.time;
  out.step = opt_.use_heun
                 ? levelset::step_heun(grid_, speed_, dt, opt_.scheme,
                                       state_.psi, step_scratch_)
                 : levelset::step_euler(grid_, speed_, dt, opt_.scheme,
                                        state_.psi, step_scratch_);
  state_.time += dt;
  update_ignition_times(psi_before_, t_before, dt);

  if (opt_.reinit_interval > 0 &&
      ++steps_since_reinit_ >= opt_.reinit_interval) {
    levelset::reinitialize(grid_, state_.psi, 2, reinit_scratch_);
    steps_since_reinit_ = 0;
  }

  // Post-frontal heat release: fuel fraction decays as exp(-(t - tig)/tau);
  // the heat flux is proportional to the mass consumed this step.
  if (!out.sensible_flux.same_shape(state_.psi)) {
    out.sensible_flux = util::Array2D<double>(grid_.nx, grid_.ny);
    out.latent_flux = util::Array2D<double>(grid_.nx, grid_.ny);
  }
  out.sensible_flux.fill(0.0);
  out.latent_flux.fill(0.0);
  double total_sens = 0, total_lat = 0;
  for (int j = 0; j < grid_.ny; ++j) {
    for (int i = 0; i < grid_.nx; ++i) {
      const double ti = state_.tig(i, j);
      if (ti == kNotIgnited || ti > state_.time) continue;
      const FuelCategory* cat = fuel_.at(i, j);
      if (cat == nullptr) continue;
      const double age_now = state_.time - ti;
      const double age_before = std::max(t_before - ti, 0.0);
      const double f_before = std::exp(-age_before / cat->tau);
      const double f_now = std::exp(-age_now / cat->tau);
      fuel_frac_(i, j) = f_now;
      const double burned_mass = cat->w0 * (f_before - f_now);  // [kg/m^2]
      const double heat = burned_mass * cat->h / dt;            // [W/m^2]
      const double sens = heat * (1.0 - cat->latent_fraction);
      const double lat = heat * cat->latent_fraction;
      out.sensible_flux(i, j) = sens;
      out.latent_flux(i, j) = lat;
      total_sens += sens;
      total_lat += lat;
    }
  }
  out.total_sensible_power = total_sens * grid_.dx * grid_.dy;
  out.total_latent_power = total_lat * grid_.dx * grid_.dy;
}

FireOutputs FireModel::step_uniform_wind(double dt, double u, double v) {
  FireOutputs out;
  step_uniform_wind_into(dt, u, v, out);
  return out;
}

void FireModel::step_uniform_wind_into(double dt, double u, double v,
                                       FireOutputs& out) {
  if (!uniform_u_.same_shape(state_.psi)) {
    uniform_u_ = util::Array2D<double>(grid_.nx, grid_.ny);
    uniform_v_ = util::Array2D<double>(grid_.nx, grid_.ny);
  }
  uniform_u_.fill(u);
  uniform_v_.fill(v);
  step_into(dt, uniform_u_, uniform_v_, out);
}

void FireModel::set_state(FireState s) {
  if (!s.psi.same_shape(state_.psi) || !s.tig.same_shape(state_.tig))
    throw std::invalid_argument("FireModel::set_state: shape mismatch");
  state_ = std::move(s);
  refresh_fuel_fraction(0, grid_.ny);
}

void FireModel::refresh_fuel_fraction(int j0, int j1) {
  for (int j = j0; j < j1; ++j)
    for (int i = 0; i < grid_.nx; ++i) {
      const double ti = state_.tig(i, j);
      const FuelCategory* cat = fuel_.at(i, j);
      if (ti == kNotIgnited || ti > state_.time || cat == nullptr)
        fuel_frac_(i, j) = 1.0;
      else
        fuel_frac_(i, j) = std::exp(-(state_.time - ti) / cat->tau);
    }
}

double FireModel::burned_area() const {
  return levelset::burned_area(grid_, state_.psi);
}

double FireModel::front_length() const {
  return levelset::front_length(levelset::extract_front(grid_, state_.psi));
}

void gust_wind(double& u, double& v, double jitter, std::uint64_t seed,
               std::uint64_t step) {
  if (jitter > 0) {
    util::Rng gust = util::Rng::stream(seed, step);
    u += jitter * gust.normal();
    v += jitter * gust.normal();
  }
}

}  // namespace wfire::fire
