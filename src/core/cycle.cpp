#include "core/cycle.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "enkf/ensemble.h"
#include "obs/obs_function.h"

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
}

void AssimilationCycle::initialize(
    const std::vector<levelset::Ignition>& base) {
  models_.clear();
  member_wind_.clear();
  batch_.reset();
  models_.resize(opt_.members);
  member_wind_.resize(opt_.members);
  // Member k's perturbations come from its own counter-based stream, so the
  // ensemble is identical no matter how many threads build or advance it
  // (and no matter what else was drawn from the shared rng_).
  runner_.run_phase("initialize", opt_.members, [&](int k) {
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
  runner_.run_batch_phase("advance", [&] {
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
  if (opt_.file_exchange) roundtrip_through_files();
}

std::vector<morphing::MorphMember> AssimilationCycle::gather_fields(
    const ObservationImage& obs, bool distance_observable,
    util::Array2D<double>& data_field) {
  std::vector<morphing::MorphMember> fields(models_.size());
  // Task N puts the observed image through the same observable transform as
  // the members (synthetic and real data compared like-for-like).
  const int tasks = members() + (distance_observable ? 1 : 0);
  runner_.run_phase("obs_function", tasks, [&](int k) {
    if (k == members()) {
      data_field = obs::front_distance_field(obs.image, grid_,
                                             opt_.front_flux_threshold);
      return;
    }
    const fire::FireState& s = models_[k]->state();
    morphing::MorphMember m;
    m.fields.resize(3);
    m.fields[0] = obs::heat_flux_image(fuel_, s.tig, s.time);
    if (distance_observable)
      m.fields[0] = obs::front_distance_field(m.fields[0], grid_,
                                              opt_.front_flux_threshold);
    m.fields[1] = s.psi;
    m.fields[2] = s.tig;
    for (double& v : m.fields[2]) v = capped_tig(v);
    fields[k] = std::move(m);
  });
  return fields;
}

void AssimilationCycle::scatter_fields(
    const std::vector<morphing::MorphMember>& fields, double time) {
  runner_.run_phase("state_update", members(), [&](int k) {
    fire::FireState s;
    s.psi = fields[k].fields[1];
    s.tig = fields[k].fields[2];
    s.time = time;
    // Consistency: the burning region is exactly {psi < 0}; inside it the
    // ignition time cannot exceed the current time, outside it is unset.
    for (int j = 0; j < grid_.ny; ++j)
      for (int i = 0; i < grid_.nx; ++i) {
        if (s.psi(i, j) < 0) {
          if (s.tig(i, j) > time) s.tig(i, j) = time;
        } else {
          s.tig(i, j) = fire::kNotIgnited;
        }
      }
    models_[k]->set_state(std::move(s));
  });
}

void AssimilationCycle::roundtrip_through_files() {
  namespace fs = std::filesystem;
  fs::create_directories(opt_.exchange_dir);
  runner_.run_phase("file_write", members(), [&](int k) {
    obs::write_fire_state(
        opt_.exchange_dir + "/member_" + std::to_string(k) + ".wfst",
        models_[k]->state());
  });
  runner_.run_phase("file_read", members(), [&](int k) {
    const fire::FireState s = obs::read_fire_state(
        opt_.exchange_dir + "/member_" + std::to_string(k) + ".wfst", grid_.nx,
        grid_.ny);
    models_[k]->set_state(s);
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
  runner_.run_serial_phase("enkf", [&] {
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
  if (opt_.file_exchange) roundtrip_through_files();
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
