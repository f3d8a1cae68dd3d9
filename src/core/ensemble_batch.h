// Batched structure-of-arrays ensemble propagation — the forward-model half
// of the paper's Fig. 2 as one fused computation instead of N independent
// model runs. All members' level set / ignition-time / fuel-fraction fields
// are stored member-contiguous per grid node (layout contract in
// levelset/batch.h), so the spread evaluation, the Godunov/Heun update, the
// ignition-time crossing and the post-frontal fuel decay each become one
// grid sweep with a unit-stride inner member loop the compiler vectorizes.
//
// Narrow band: only nodes within `band_cells` cells of *any* member's front
// are swept. The front moves at most max-S per second, so the band stays
// valid until the accumulated front travel eats the safety margin; it is
// then rebuilt from the current psi (and after every fast-sweep
// redistancing, which also repairs the frozen far field — see
// levelset/fast_sweep.h). With the band disabled (band_cells = 0, full-grid
// sweeps) the batched advance is bitwise-identical to stepping each
// FireModel; with the band on, the zero contour and ignition times agree to
// rounding while the far field lags between redistancing calls.
//
// Redistancing cadence: with the band on, reinitialization also fires when
// the accumulated front travel since the last redistancing reaches one band
// width — at the latest every reinit_interval steps like the reference,
// earlier when the front outruns that. The band/reference agreement
// therefore no longer depends on picking reinit_interval conservatively for
// the spread rate. At band_cells = 0 only the step-count cadence runs,
// keeping the sweep bitwise-equal to the reference.
//
// The member stride is padded to a multiple of 4 lanes (one AVX2 vector of
// doubles); padding lanes carry benign values through the same arithmetic.
//
// Steady state allocates nothing: the SoA fields are sized at construction
// and the compact band scratch reuses its high-water capacity across
// rebuilds (the same arena discipline as la::Workspace in the analysis).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fire/model.h"
#include "fire/spread_batch.h"
#include "levelset/batch.h"

namespace wfire::core {

class EnsembleBatch {
 public:
  // Shared grid/fuel/terrain and stepping options (members differ in wind,
  // burn-time scale and state); `members` is fixed for
  // the batch lifetime (load() expects exactly that many models).
  // `band_cells` is the narrow-band half width in cells (distance from the
  // nearest member front); 0 disables the band (full-grid sweeps,
  // bitwise-equal to stepping each FireModel). Values 1..3 are clamped to 4: the
  // band needs room for the 2-cell rebuild slack plus the stencil.
  EnsembleBatch(const grid::Grid2D& g, const fire::FuelMap& fuel,
                const util::Array2D<double>& terrain,
                fire::FireModelOptions opt, int members, int band_cells);

  [[nodiscard]] int members() const { return members_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int band_size() const { return static_cast<int>(band_.size()); }
  [[nodiscard]] const levelset::BatchLayout& layout() const { return lay_; }

  // Per-member uniform wind forcing [m/s]. With jitter > 0 each step adds
  // the scenario server's gusts, fire::gust_wind(u, v, jitter, seed, step),
  // where step counts the steps since load(). jitter = 0 (the
  // assimilation-cycle regime) is a steady wind.
  void set_member_wind(int k, double u, double v, double jitter = 0,
                       std::uint64_t seed = 0);

  // Per-member scale on the fuel catalog's mass-loss e-folding time: the
  // decay divides by fl(tau * scale), the tau a FireModel whose catalog was
  // scaled by the same factor holds (serve::make_model). Default 1.
  void set_member_burn_time_scale(int k, double scale);

  // Packs the models' states into the SoA fields. All members must share
  // the model time and the reinitialization phase (they do when advanced in
  // lockstep); throws std::invalid_argument otherwise. Delayed (pending)
  // ignitions are carried in-batch: each member's queue is applied inside
  // step() when its time arrives, with FireModel's min-merge arithmetic.
  void load(const std::vector<std::unique_ptr<fire::FireModel>>& models);

  // Advances all members to `time` in steps of min(dt, time - now) while
  // now < time - 1e-9, the scenario server's step sequence. Matches
  // FireModel::step semantics: spread
  // from current psi and fuel fraction, Heun/Euler Godunov update, linear
  // ignition-time crossing, post-frontal fuel decay, periodic fast-sweep
  // redistancing.
  void advance_to(double time, double dt);

  // Writes the advanced states back through FireModel::set_state (which
  // refreshes each model's fuel fraction from tig) and restores any
  // still-pending delayed ignitions.
  void store(std::vector<std::unique_ptr<fire::FireModel>>& models) const;

  // Member k's ignition-time field, copied out without a model round trip
  // (so a caller can free its models before the advance).
  [[nodiscard]] util::Array2D<double> member_tig(int k) const;

 private:
  void step(double dt);
  void check_member(int k) const;
  void fill_wind_rows();
  bool apply_due_ignitions();
  void maybe_reinit();
  void rebuild_band();
  void reinitialize_members();

  grid::Grid2D grid_;
  fire::FireModelOptions opt_;
  levelset::BatchLayout lay_;
  int members_ = 0;
  double time_ = 0;
  int steps_since_reinit_ = 0;
  std::uint64_t steps_ = 0;         // since load(): the gust stream index
  double travel_since_reinit_ = 0;  // front travel [m] for the band cadence
  double step_travel_ = 0;          // travel of the last step

  fire::SpreadTables tables_;
  util::Array2D<double> dzdx_, dzdy_;

  // Full-grid SoA fields.
  std::vector<double> psi_, tig_, fuel_;
  // Per-member rows (length stride): this step's wind (padding lanes 0) and
  // the mass-loss time scales (padding lanes 1).
  std::vector<double> wind_u_, wind_v_, burn_time_scale_;
  // Per-member steady wind and gust stream (jitter 0: no gusts).
  struct Wind {
    double u = 0, v = 0, jitter = 0;
    std::uint64_t seed = 0;
  };
  std::vector<Wind> wind_;
  // Per-member delayed-ignition queues, applied in-batch as they come due.
  std::vector<std::vector<levelset::Ignition>> pending_;
  util::Array2D<double> ignite_scratch_;

  // Narrow band: sorted cell list, cell -> band position (-1 outside), and
  // the accumulated front travel [m] since the last rebuild.
  std::vector<int> band_;
  std::vector<int> band_pos_;
  double travel_ = 0;
  double band_width_m_ = 0;   // 0 = full grid
  double rebuild_margin_m_ = 0;

  // Compact band-major scratch (speed, gradients, predictor, pre-step psi).
  std::vector<double> speed_, k1_, k2_, pred_, before_;

  // Per-member scratch for the fast-sweep redistancing: the member's psi and
  // the sweep's distance work array.
  std::vector<util::Array2D<double>> member_scratch_, member_dist_;
};

}  // namespace wfire::core
