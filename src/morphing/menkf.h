// The morphing ensemble Kalman filter (paper Sec. 3.3, after Beezley &
// Mandel 2008): ensemble members are transformed into extended states
// [r, T] relative to a common reference field, the (standard, stochastic)
// EnKF runs on the extended states — so its linear combinations become
// morphs that move the fire — and the result is transformed back.
//
// Members carry one *registration field* (the observable, e.g. the heat
// flux image) plus any number of companion state fields (psi, ignition
// time); all fields of a member share the member's mapping T, so a position
// correction moves the whole fire state coherently.
//
// The data image enters in the same representation: it is image N of the
// one encode loop over the N + 1 images, registered against the same
// reference (u0 and its smoothed pyramid, built once per analysis), and the
// observation operator on extended states is the (linear!) selection of the
// [r_obs, T] block — this is how morphing converts the wildly non-Gaussian
// "fire in the wrong place" problem into one the EnKF can solve.
#pragma once

#include <vector>

#include "enkf/enkf.h"
#include "morphing/morph.h"

namespace wfire::morphing {

struct MorphingEnKFOptions {
  RegistrationOptions reg;
  double sigma_r = 1.0;       // obs error std on the amplitude residual
  double sigma_T = 1.0;       // obs error std on the mapping [grid units]
  double t_weight = 1.0;      // relative weight of T vs r in the state
  double inflation = 1.0;     // all four: finite, > 0
};

// One ensemble member in field form: fields[0] is the registration /
// observable field; fields[1..] are companion state fields.
struct MorphMember {
  std::vector<util::Array2D<double>> fields;
};

struct MorphingStats {
  enkf::EnKFStats enkf;
  double mean_registration_residual = 0;  // mean data term across members
  double data_registration_residual = 0;
  double max_mapping_norm = 0;            // largest |T| seen [grid units]
};

class MorphingEnKF {
 public:
  explicit MorphingEnKF(MorphingEnKFOptions opt = {}) : opt_(opt) {}

  // Analysis step, in place on `members`. `data` is the observed image;
  // there must be >= 2 members, each with the same number (>= 1) of fields,
  // each shaped like `data`, and the options' sigma_r, sigma_T, t_weight and
  // inflation must be finite and > 0 (std::invalid_argument otherwise,
  // before any work). A rejected call leaves `members` and `rng` as they
  // were. The observation perturbations are drawn from `rng` exactly as
  // enkf::enkf_analysis draws them, during the encode. The reference
  // u0 is the ensemble mean of each field (a common, self-consistent choice;
  // the companion references use the same member weights). The
  // extended-state matrices and the inner EnKF scratch live in `ws` when
  // given (else in a filter-owned arena), so repeated analyses allocate
  // nothing in them once warm.
  MorphingStats analyze(std::vector<MorphMember>& members,
                        const util::Array2D<double>& data, util::Rng& rng,
                        la::Workspace* ws = nullptr);

  [[nodiscard]] const MorphingEnKFOptions& options() const { return opt_; }

 private:
  MorphingEnKFOptions opt_;
  la::Workspace ws_;  // fallback arena when the caller does not supply one
};

// Standard-EnKF baseline on raw fields (what Fig. 4(c) does): stacks the
// member fields directly into state vectors and assimilates the data image
// pixelwise. Provided here so the Fig. 4 bench can compare both filters
// through one interface. Inputs are checked and `ws` is used as in
// MorphingEnKF::analyze.
enkf::EnKFStats standard_enkf_on_fields(std::vector<MorphMember>& members,
                                        const util::Array2D<double>& data,
                                        double sigma_obs, double inflation,
                                        util::Rng& rng,
                                        la::Workspace* ws = nullptr);

}  // namespace wfire::morphing
