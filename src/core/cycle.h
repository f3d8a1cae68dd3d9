// The assimilation cycle of the paper's Fig. 2: ensemble members are
// advanced in time independently (one batched SoA advance, bitwise-equal to
// stepping each member with band_cells = 0), the observation function
// produces synthetic data for each member, and the (morphing) EnKF adjusts
// the member states by comparing synthetic with real data. State optionally
// round-trips through disk files between the stages, matching the paper's
// separate-executable pipeline ("the model, the observation function, and
// the EnKF are in separate executables"); the in-memory path is bitwise
// equivalent (tested) and faster.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/data_pool.h"
#include "core/ensemble_batch.h"
#include "core/model_state.h"
#include "la/workspace.h"
#include "morphing/menkf.h"
#include "obs/obs_function.h"
#include "par/ensemble_runner.h"

namespace wfire::core {

enum class FilterKind { kStandardEnKF, kMorphingEnKF };

struct CycleOptions {
  int members = 25;              // the paper's Fig. 4 ensemble size
  double dt = 0.5;               // model step [s] (paper Sec. 2.3)
  FilterKind filter = FilterKind::kMorphingEnKF;
  // The morphing filter registers on the signed distance to the actively
  // burning band of the heat-flux image (front_distance_field): thin flux
  // rings alias away in registration pyramids, their distance transform is
  // smooth and large-scale — the image-space analogue of the level set
  // function. Morphing observation errors are therefore in meters. The
  // standard-EnKF baseline assimilates the raw flux image pixelwise, which
  // is the paper's Fig. 4(c) configuration (and what diverges there).
  double front_flux_threshold = 5000.0;  // [W/m^2] active-band cut
  // sigma_T / sigma_r is also the T-vs-r weight of the morphing analysis.
  morphing::MorphingEnKFOptions morph{.reg = {},
                                      .sigma_r = 50.0,   // [m]
                                      .sigma_T = 0.5,    // [fire cells]
                                      .inflation = 1.0};
  double standard_sigma_obs = 2000.0;  // [W/m^2], raw-image baseline
  // Member forcing: ambient wind plus per-member jitter (ensemble spread in
  // the driving weather).
  double wind_u = 3.0, wind_v = 0.0;
  double wind_jitter = 0.5;      // std [m/s]
  // Initial ensemble: ignition locations displaced per member.
  double ignition_jitter = 60.0; // std of the center offset [m]
  // Disk-file exchange (Fig. 2 pipeline).
  bool file_exchange = false;
  std::string exchange_dir = "/tmp/wfire_exchange";
  int threads = 0;               // 0 = hardware concurrency
  // Narrow-band half width in cells of the batched advance (the one default
  // of EnsembleBatch's band); 0 disables the band.
  int band_cells = 8;
};

struct AnalysisResult {
  enkf::EnKFStats enkf;
  double mean_registration_residual = 0;  // morphing only
  double max_mapping_norm = 0;            // morphing only
};

class AssimilationCycle {
 public:
  AssimilationCycle(const grid::Grid2D& g, fire::FuelMap fuel,
                    util::Array2D<double> terrain,
                    fire::FireModelOptions fire_opt, CycleOptions opt,
                    std::uint64_t seed);

  // Builds the ensemble from base ignitions: each member's shapes are
  // displaced by an iid N(0, ignition_jitter^2) offset (the paper's
  // "random perturbation of the comparison solution").
  void initialize(const std::vector<levelset::Ignition>& base);

  // Advances all members to `time` as one EnsembleBatch. Starts a new cycle:
  // clears the runner's phase log first. Like assimilate(), mean_shape_error()
  // and state_spread(), throws std::runtime_error before initialize();
  // throws std::invalid_argument (from EnsembleBatch::load) when members do
  // not share the model time and redistancing phase.
  void advance_to(double time);

  // One analysis with the given observation image.
  AnalysisResult assimilate(const ObservationImage& obs);

  // --- diagnostics ---
  [[nodiscard]] int members() const { return static_cast<int>(models_.size()); }
  [[nodiscard]] const fire::FireModel& member(int k) const { return *models_[k]; }
  [[nodiscard]] const grid::Grid2D& grid() const { return grid_; }
  [[nodiscard]] par::EnsembleRunner& runner() { return runner_; }
  // Always 0: an advance whose members are out of lockstep throws instead of
  // falling back. Kept because perfbench's assim_cycle still reads it.
  [[nodiscard]] long fallback_count() const { return 0; }

  // Mean over members of the burning-centroid distance to a reference psi.
  [[nodiscard]] double mean_position_error(
      const util::Array2D<double>& truth_psi) const;

  // Mean symmetric-difference burned area against a reference psi [m^2].
  [[nodiscard]] double mean_shape_error(
      const util::Array2D<double>& truth_psi) const;

  // Ensemble spread of the packed state (psi + capped tig).
  [[nodiscard]] double state_spread() const;

 private:
  // The observation function of every member and, for the morphing filter
  // (distance_observable), the data image's observable into data_field.
  std::vector<morphing::MorphMember> gather_fields(
      const ObservationImage& obs, bool distance_observable,
      util::Array2D<double>& data_field);
  void scatter_fields(const std::vector<morphing::MorphMember>& fields,
                      double time);
  void roundtrip_through_files();
  // Throws std::runtime_error while the ensemble is empty.
  void require_initialized() const;

  grid::Grid2D grid_;
  fire::FuelMap fuel_;
  util::Array2D<double> terrain_;
  fire::FireModelOptions fire_opt_;
  CycleOptions opt_;
  std::uint64_t seed_;
  util::Rng rng_;
  par::EnsembleRunner runner_;
  std::vector<std::unique_ptr<fire::FireModel>> models_;
  std::vector<std::pair<double, double>> member_wind_;
  std::unique_ptr<EnsembleBatch> batch_;  // lazily built SoA advance
  obs::DistanceScratch obs_scratch_;      // the observable's lane scratch
  morphing::MorphingEnKF menkf_;
  la::Workspace la_ws_;  // analysis scratch, reused across cycles
};

}  // namespace wfire::core
