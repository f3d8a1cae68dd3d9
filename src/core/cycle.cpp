#include "core/cycle.h"

#include <cmath>
#include <stdexcept>

#include "enkf/ensemble.h"
#include "obs/obs_function.h"
#include "util/omp_compat.h"

namespace wfire::core {

AssimilationCycle::AssimilationCycle(const grid::Grid2D& g, fire::FuelMap fuel,
                                     util::Array2D<double> terrain,
                                     fire::FireModelOptions fire_opt,
                                     CycleOptions opt, std::uint64_t seed)
    : grid_(g),
      fuel_(std::move(fuel)),
      terrain_(std::move(terrain)),
      fire_opt_(fire_opt),
      opt_(opt),
      seed_(seed),
      rng_(seed),
      runner_(opt.threads),
      menkf_(opt.morph) {
  if (opt_.members < 2)
    throw std::invalid_argument("AssimilationCycle: members < 2");
  // The members' FireModel constructors check the same shapes; checked here
  // once, they cannot throw inside initialize()'s parallel loop.
  if (fuel_.index.nx() != g.nx || fuel_.index.ny() != g.ny)
    throw std::invalid_argument(
        "AssimilationCycle: fuel map does not match grid");
  if (terrain_.nx() != g.nx || terrain_.ny() != g.ny)
    throw std::invalid_argument(
        "AssimilationCycle: terrain does not match grid");
}

void AssimilationCycle::initialize(
    const std::vector<levelset::Ignition>& base) {
  for (const levelset::Ignition& ign : base) levelset::validate(ign);
  if (!(std::isfinite(opt_.ignition_jitter) && opt_.ignition_jitter >= 0))
    throw std::invalid_argument(
        "AssimilationCycle: ignition_jitter must be finite and >= 0");
  models_.clear();
  member_wind_.clear();
  batch_.reset();
  models_.resize(opt_.members);
  member_wind_.resize(opt_.members);
  // Member k's perturbations come from its own counter-based stream, so the
  // ensemble is identical no matter how many threads build or advance it
  // (and no matter what else was drawn from the shared rng_).
  runner_.run_phase("initialize", [&] {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int k = 0; k < opt_.members; ++k) {
      util::Rng mrng =
          util::Rng::stream(seed_, static_cast<std::uint64_t>(k) + 1);
      auto model = std::make_unique<fire::FireModel>(grid_, fuel_, terrain_,
                                                     fire_opt_);
      const double dx = opt_.ignition_jitter * mrng.normal();
      const double dy = opt_.ignition_jitter * mrng.normal();
      std::vector<levelset::Ignition> perturbed;
      perturbed.reserve(base.size());
      for (const auto& ign : base)
        perturbed.push_back(levelset::shifted(ign, dx, dy));
      model->ignite(perturbed);
      models_[k] = std::move(model);
      member_wind_[k] = {opt_.wind_u + opt_.wind_jitter * mrng.normal(),
                         opt_.wind_v + opt_.wind_jitter * mrng.normal()};
    }
  });
}

void AssimilationCycle::require_initialized() const {
  if (models_.empty())
    throw std::runtime_error("AssimilationCycle: initialize() first");
}

void AssimilationCycle::advance_to(double time) {
  require_initialized();
  // A cycle starts here, so the phase log holds this cycle's phases only
  // and a long-running driver does not grow it without bound.
  runner_.clear_timings();
  runner_.run_phase("advance", [&] {
    if (!batch_) {
      batch_ = std::make_unique<EnsembleBatch>(
          grid_, fuel_, terrain_, fire_opt_, members(), opt_.band_cells);
    }
    for (int k = 0; k < members(); ++k)
      batch_->set_member_wind(k, member_wind_[k].first,
                              member_wind_[k].second);
    batch_->load(models_);
    batch_->advance_to(time, opt_.dt);
    batch_->store(models_);
  });
}

std::vector<morphing::MorphMember> AssimilationCycle::gather_fields(
    const ObservationImage& obs, bool distance_observable,
    util::Array2D<double>& data_field) {
  std::vector<morphing::MorphMember> fields(models_.size());
  runner_.run_phase("obs_function", [&] {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int k = 0; k < members(); ++k) {
      const fire::FireState& s = models_[k]->state();
      std::vector<util::Array2D<double>>& f = fields[k].fields;
      f.resize(3);
      f[0] = obs::heat_flux_image(fuel_, s.tig, s.time);
      f[1] = s.psi;
      f[2] = s.tig;
      for (double& v : f[2]) v = capped_tig(v);
    }
    if (!distance_observable) return;
    // The members' flux images and the observed image go through the same
    // observable transform (synthetic and real data compared like for
    // like), in one lane-batched call; the members' are replaced in place.
    std::vector<const util::Array2D<double>*> images;
    std::vector<util::Array2D<double>*> out;
    for (morphing::MorphMember& m : fields) {
      images.push_back(&m.fields[0]);
      out.push_back(&m.fields[0]);
    }
    images.push_back(&obs.image);
    out.push_back(&data_field);
    obs::front_distance_fields(images, grid_, opt_.front_flux_threshold, out,
                               obs_scratch_);
  });
  return fields;
}

void AssimilationCycle::scatter_fields(
    const std::vector<morphing::MorphMember>& fields, double time) {
  for (const auto& m : models_) m->state().time = time;
  // Into each model's own psi and tig, in parallel row blocks, with
  // set_state's fuel-fraction refresh of the same row.
  runner_.run_phase("state_update", [&] {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int j = 0; j < grid_.ny; ++j) {
      for (int k = 0; k < members(); ++k) {
        fire::FireModel& m = *models_[k];
        const double* psi_a = fields[k].fields[1].row(j);
        const double* tig_a = fields[k].fields[2].row(j);
        double* psi = m.state().psi.row(j);
        double* tig = m.state().tig.row(j);
        // Consistency: the burning region is exactly {psi < 0}; inside it
        // the ignition time cannot exceed the current time, outside it is
        // unset.
        for (int i = 0; i < grid_.nx; ++i) {
          psi[i] = psi_a[i];
          tig[i] = psi_a[i] < 0 ? (tig_a[i] > time ? time : tig_a[i])
                                : fire::kNotIgnited;
        }
        m.refresh_fuel_fraction(j, j + 1);
      }
    }
  });
}

AnalysisResult AssimilationCycle::assimilate(const ObservationImage& obs) {
  require_initialized();
  const double time = models_.front()->state().time;
  const bool morphing_filter = opt_.filter == FilterKind::kMorphingEnKF;
  util::Array2D<double> data_field;
  std::vector<morphing::MorphMember> fields =
      gather_fields(obs, morphing_filter, data_field);

  AnalysisResult result;
  runner_.run_phase("enkf", [&] {
    if (morphing_filter) {
      const morphing::MorphingStats stats =
          menkf_.analyze(fields, data_field, rng_, &la_ws_);
      result.enkf = stats.enkf;
      result.mean_registration_residual = stats.mean_registration_residual;
      result.max_mapping_norm = stats.max_mapping_norm;
    } else {
      // Paper Fig. 4(c): the standard EnKF compares raw images pixelwise.
      result.enkf = morphing::standard_enkf_on_fields(
          fields, obs.image, opt_.standard_sigma_obs, rng_, &la_ws_);
    }
  });

  scatter_fields(fields, time);
  return result;
}

double AssimilationCycle::mean_position_error(
    const util::Array2D<double>& truth_psi) const {
  double total = 0;
  int counted = 0;
  for (const auto& m : models_) {
    const double d = centroid_distance(grid_, m->state().psi, truth_psi);
    if (std::isfinite(d)) {
      total += d;
      ++counted;
    }
  }
  return counted > 0 ? total / counted
                     : std::numeric_limits<double>::infinity();
}

double AssimilationCycle::mean_shape_error(
    const util::Array2D<double>& truth_psi) const {
  require_initialized();
  double total = 0;
  for (const auto& m : models_)
    total += symmetric_difference_area(grid_, m->state().psi, truth_psi);
  return total / static_cast<double>(models_.size());
}

double AssimilationCycle::state_spread() const {
  require_initialized();
  const int n = static_cast<int>(pack_state(models_.front()->state()).size());
  la::Matrix X(n, members());
  for (int k = 0; k < members(); ++k) {
    const la::Vector v = pack_state(models_[k]->state());
    auto col = X.col(k);
    std::copy(v.begin(), v.end(), col.begin());
  }
  return enkf::spread(X);
}

}  // namespace wfire::core
