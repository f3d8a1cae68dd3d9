#include "core/ensemble_batch.h"

#include "levelset/fast_sweep.h"
#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace wfire::core {

namespace {

// Member-lane padding: the stride is members rounded up to a multiple of
// this (4 doubles = one AVX2 vector).
constexpr int kSimdPad = 4;

// With the band on, psi is also redistanced once the front has traveled this
// fraction of the band width since the last reinitialization — a safety
// trigger on top of the reference's reinit_interval step cadence. At 1.0 it
// fires only when the front outruns the step cadence entirely, so a
// well-chosen reinit_interval behaves exactly as in the reference.
constexpr double kReinitTravelFrac = 1.0;

int round_up(int n, int pad) { return ((n + pad - 1) / pad) * pad; }

}  // namespace

EnsembleBatch::EnsembleBatch(const grid::Grid2D& g, const fire::FuelMap& fuel,
                             const util::Array2D<double>& terrain,
                             fire::FireModelOptions opt, int members,
                             int band_cells)
    : grid_(g), opt_(opt), members_(members) {
  if (members_ < 1)
    throw std::invalid_argument("EnsembleBatch: members < 1");
  if (fuel.index.nx() != g.nx || fuel.index.ny() != g.ny)
    throw std::invalid_argument("EnsembleBatch: fuel map does not match grid");
  if (terrain.nx() != g.nx || terrain.ny() != g.ny)
    throw std::invalid_argument("EnsembleBatch: terrain does not match grid");
  lay_ = levelset::BatchLayout{g.nx, g.ny, round_up(members_, kSimdPad)};

  tables_ = fire::SpreadTables::build(fuel);
  fire::terrain_gradient(grid_, terrain, dzdx_, dzdy_);

  const double far = g.width() + g.height();
  psi_.assign(lay_.size(), far);
  tig_.assign(lay_.size(), fire::kNotIgnited);
  fuel_.assign(lay_.size(), 0.0);  // padding lanes: no fuel -> speed 0
  wind_u_.assign(lay_.stride, 0.0);
  wind_v_.assign(lay_.stride, 0.0);
  burn_time_scale_.assign(lay_.stride, 1.0);
  wind_.assign(static_cast<std::size_t>(members_), {});
  pending_.assign(static_cast<std::size_t>(members_), {});
  band_pos_.assign(lay_.cells(), -1);

  if (band_cells > 0) {
    const double h = std::max(g.dx, g.dy);
    band_width_m_ = std::max(band_cells, 4) * h;
    // Rebuild before the front can get within ~2 cells of the band edge;
    // under the level set CFL bound a step travels at most one cell.
    rebuild_margin_m_ = band_width_m_ - 2.0 * h;
  }
  rebuild_band();
}

void EnsembleBatch::check_member(int k) const {
  if (k < 0 || k >= members_)
    throw std::invalid_argument("EnsembleBatch: member out of range");
}

void EnsembleBatch::set_member_wind(int k, double u, double v, double jitter,
                                    std::uint64_t seed) {
  check_member(k);
  wind_[k] = Wind{u, v, jitter, seed};
}

void EnsembleBatch::set_member_burn_time_scale(int k, double scale) {
  check_member(k);
  if (!(scale > 0))
    throw std::invalid_argument("EnsembleBatch: burn time scale <= 0");
  burn_time_scale_[k] = scale;
}

void EnsembleBatch::load(
    const std::vector<std::unique_ptr<fire::FireModel>>& models) {
  if (static_cast<int>(models.size()) != members_)
    throw std::invalid_argument("EnsembleBatch: load with wrong member count");
  time_ = models.front()->state().time;
  steps_ = 0;
  steps_since_reinit_ = models.front()->steps_since_reinit();
  for (const auto& m : models) {
    if (std::abs(m->state().time - time_) > 1e-9)
      throw std::invalid_argument(
          "EnsembleBatch: members must share the model time");
    if (m->steps_since_reinit() != steps_since_reinit_)
      throw std::invalid_argument(
          "EnsembleBatch: members must share the reinit phase");
  }
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
  pending_.assign(static_cast<std::size_t>(members_), {});
  for (int k = 0; k < members_; ++k) {
    const double* ps = models[k]->state().psi.data();
    const double* tg = models[k]->state().tig.data();
    const double* ff = models[k]->fuel_fraction().data();
    for (std::size_t c = 0; c < cells; ++c) {
      psi_[c * stride + k] = ps[c];
      tig_[c * stride + k] = tg[c];
      fuel_[c * stride + k] = ff[c];
    }
    pending_[k] = models[k]->pending_ignitions();
  }
  travel_ = 0;
  travel_since_reinit_ = 0;
  rebuild_band();
}

// Fills this step's wind rows with the scenario server's rule
// (fire::gust_wind at this step index).
void EnsembleBatch::fill_wind_rows() {
  for (int k = 0; k < members_; ++k) {
    const Wind& w = wind_[k];
    double u = w.u, v = w.v;
    fire::gust_wind(u, v, w.jitter, w.seed, steps_);
    wind_u_[k] = u;
    wind_v_[k] = v;
  }
}

// Applies each member's due delayed ignitions with the arithmetic of
// FireModel::apply_pending_ignitions: signed distance of the
// due union, min-merged into psi, then tig = now wherever psi < 0 and the
// node has not ignited. Returns true if any member's field changed (the
// band must then be rebuilt before the sweep).
bool EnsembleBatch::apply_due_ignitions() {
  bool any = false;
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
  for (int k = 0; k < members_; ++k) {
    auto& queue = pending_[k];
    if (queue.empty()) continue;
    std::vector<levelset::Ignition> due, later;
    for (const auto& ign : queue) {
      if (levelset::ignition_time(ign) <= time_)
        due.push_back(ign);
      else
        later.push_back(ign);
    }
    if (due.empty()) continue;
    queue = std::move(later);
    levelset::initialize_signed_distance(grid_, due, ignite_scratch_);
    const double* pn = ignite_scratch_.data();
    for (std::size_t c = 0; c < cells; ++c) {
      double& p = psi_[c * stride + k];
      if (pn[c] < p) p = pn[c];
      if (p < 0 && tig_[c * stride + k] == fire::kNotIgnited)
        tig_[c * stride + k] = time_;
    }
    any = true;
  }
  return any;
}

void EnsembleBatch::rebuild_band() {
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
  band_.clear();
  if (band_width_m_ <= 0) {
    band_.reserve(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      band_.push_back(static_cast<int>(c));
      band_pos_[c] = static_cast<int>(c);
    }
  } else {
    for (std::size_t c = 0; c < cells; ++c) {
      const double* row = &psi_[c * stride];
      double amin = std::abs(row[0]);
      for (int k = 1; k < members_; ++k)
        amin = std::min(amin, std::abs(row[k]));
      if (amin < band_width_m_) {
        band_pos_[c] = static_cast<int>(band_.size());
        band_.push_back(static_cast<int>(c));
      } else {
        band_pos_[c] = -1;
      }
    }
  }
  travel_ = 0;
  const std::size_t compact = band_.size() * static_cast<std::size_t>(stride);
  speed_.resize(compact);
  k1_.resize(compact);
  k2_.resize(compact);
  pred_.resize(compact);
  before_.resize(compact);
}

void EnsembleBatch::advance_to(double time, double dt) {
  if (dt <= 0) throw std::invalid_argument("EnsembleBatch: dt <= 0");
  while (time_ < time - 1e-9) {
    const double remaining = time - time_;
    step(std::min(dt, remaining));
  }
}

void EnsembleBatch::step(double dt) {
  const int stride = lay_.stride;
  const double h = std::max(grid_.dx, grid_.dy);
  fill_wind_rows();
  if (apply_due_ignitions() && band_width_m_ > 0) rebuild_band();
  if (band_width_m_ > 0 && travel_ + h >= rebuild_margin_m_) rebuild_band();
  const int nband = static_cast<int>(band_.size());
  const int* band = band_.data();

  const double smax = fire::spread_field_batch(
      grid_, lay_, psi_.data(), fuel_.data(), wind_u_.data(), wind_v_.data(),
      tables_, dzdx_, dzdy_, opt_.min_fuel_frac, band, nband, speed_.data());

  // Pre-step psi on the band (the ignition-time crossing reference).
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int b = 0; b < nband; ++b)
    std::memcpy(&before_[static_cast<std::size_t>(b) * stride],
                &psi_[static_cast<std::size_t>(band[b]) * stride],
                sizeof(double) * static_cast<std::size_t>(stride));

  if (opt_.use_heun) {
    levelset::step_heun_batch(grid_, lay_, speed_.data(), dt, opt_.scheme,
                              band, nband, band_pos_.data(), psi_.data(),
                              pred_.data(), k1_.data(), k2_.data());
  } else {
    levelset::step_euler_batch(grid_, lay_, speed_.data(), dt, opt_.scheme,
                               band, nband, psi_.data(), k1_.data());
  }

  const double t_before = time_;
  time_ += dt;
  ++steps_;

  // Ignition-time crossing + post-frontal fuel decay, fused over the band
  // (update_ignition_times / the flux loop in fire/model.cpp, per node). The
  // same pass measures the largest psi decrease of the step: band membership
  // is in psi units, and without redistancing |grad psi| can exceed 1, so
  // psi near the front drops faster than smax*dt meters — the travel
  // accounting must follow the actual drop or the front eats through the
  // band before the rebuild triggers.
  const double time_now = time_;
  double max_drop = 0.0;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static) reduction(max : max_drop))
  for (int b = 0; b < nband; ++b) {
    const std::size_t cell = static_cast<std::size_t>(band[b]);
    double* tg = &tig_[cell * stride];
    double* ff = &fuel_[cell * stride];
    const double* after = &psi_[cell * stride];
    const double* bef = &before_[static_cast<std::size_t>(b) * stride];
    const bool burnable = tables_.burnable[cell] != 0;
    const double tau = tables_.tau[cell];
    const double* scale = burn_time_scale_.data();
    for (int k = 0; k < stride; ++k) {
      const double drop = bef[k] - after[k];
      if (drop > max_drop) max_drop = drop;
      if (tg[k] == fire::kNotIgnited && after[k] < 0) {
        const double frac =
            drop > 1e-300 ? std::clamp(bef[k] / drop, 0.0, 1.0) : 1.0;
        tg[k] = t_before + frac * dt;
      }
      if (burnable && tg[k] != fire::kNotIgnited && tg[k] <= time_now)
        ff[k] = std::exp(-(time_now - tg[k]) / (tau * scale[k]));
    }
  }

  step_travel_ = std::max(smax * dt, max_drop);
  travel_ += step_travel_;
  maybe_reinit();
}

void EnsembleBatch::maybe_reinit() {
  if (opt_.reinit_interval <= 0) return;
  bool due = ++steps_since_reinit_ >= opt_.reinit_interval;
  if (band_width_m_ > 0) {
    // Band cadence: also redistance once the front has eaten a set fraction
    // of the band width, so a front outrunning the step cadence cannot
    // stale the frozen far field no matter how reinit_interval was picked.
    travel_since_reinit_ += step_travel_;
    due = due || travel_since_reinit_ >= kReinitTravelFrac * band_width_m_;
  }
  if (due) {
    reinitialize_members();
    steps_since_reinit_ = 0;
    travel_since_reinit_ = 0;
    if (band_width_m_ > 0) rebuild_band();
  }
}

void EnsembleBatch::reinitialize_members() {
  if (member_scratch_.size() != static_cast<std::size_t>(members_)) {
    member_scratch_.assign(static_cast<std::size_t>(members_),
                           util::Array2D<double>(grid_.nx, grid_.ny));
    member_dist_.assign(static_cast<std::size_t>(members_),
                        util::Array2D<double>(grid_.nx, grid_.ny));
  }
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int k = 0; k < members_; ++k) {
    util::Array2D<double>& scratch = member_scratch_[k];
    double* s = scratch.data();
    for (std::size_t c = 0; c < cells; ++c) s[c] = psi_[c * stride + k];
    levelset::reinitialize(grid_, scratch, 2, member_dist_[k]);
    for (std::size_t c = 0; c < cells; ++c) psi_[c * stride + k] = s[c];
  }
}

util::Array2D<double> EnsembleBatch::member_tig(int k) const {
  check_member(k);
  util::Array2D<double> tig(grid_.nx, grid_.ny);
  double* out = tig.data();
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
  for (std::size_t c = 0; c < cells; ++c) out[c] = tig_[c * stride + k];
  return tig;
}

void EnsembleBatch::store(
    std::vector<std::unique_ptr<fire::FireModel>>& models) const {
  if (static_cast<int>(models.size()) != members_)
    throw std::invalid_argument("EnsembleBatch: store with wrong member count");
  const std::size_t cells = lay_.cells();
  const int stride = lay_.stride;
  for (int k = 0; k < members_; ++k) {
    fire::FireState s;
    s.psi = util::Array2D<double>(grid_.nx, grid_.ny);
    s.tig = util::Array2D<double>(grid_.nx, grid_.ny);
    s.time = time_;
    double* ps = s.psi.data();
    double* tg = s.tig.data();
    for (std::size_t c = 0; c < cells; ++c) {
      ps[c] = psi_[c * stride + k];
      tg[c] = tig_[c * stride + k];
    }
    models[k]->set_state(std::move(s));
    models[k]->set_steps_since_reinit(steps_since_reinit_);
    models[k]->set_pending_ignitions(pending_[k]);
  }
}

}  // namespace wfire::core
