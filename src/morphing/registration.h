// Automatic image registration (paper Sec. 3.3): find the mapping T so that
// u ~= u0 o (I + T) by approximately solving
//
//   || u - u0 o (I+T) ||^2 + c1 ||T||^2 + c2 ||grad T||^2  ->  min.
//
// The optimizer is coarse-to-fine iterative warping: the images are
// box-downsampled into a pyramid; at each level a damped Gauss-Newton
// (Lucas-Kanade style) pointwise update cancels the linearized residual,
// followed by diffusion smoothing of T (the ||grad T||^2 term, c2 acting as
// the diffusion weight) and a slight shrinkage toward zero (the ||T||^2
// term). The pyramid captures displacements far larger than one pixel —
// the "fire in a different location" case the morphing EnKF exists for.
#pragma once

#include <vector>

#include "morphing/warp.h"

namespace wfire::morphing {

struct RegistrationOptions {
  int max_levels = 6;          // pyramid depth cap (min level size 16)
  int iters_per_level = 60;    // Gauss-Newton sweeps per level
  double c1 = 1e-4;            // ||T||^2 weight (per-sweep shrink 1/(1+c1))
  double c2 = 0.25;            // ||grad T||^2 weight (diffusion, capped 0.45)
  double presmooth_sigma = 1.0;// Gaussian presmoothing per level [px]
  double initial_step = 1.0;   // per-sweep displacement cap [px]
  double tol = 1e-7;           // relative objective decrease stop
};

struct RegistrationResult {
  Mapping T;
  double objective = 0;     // final value of the full objective at level 0
  double data_term = 0;     // ||u - u0 o (I+T)||^2 / npix
  int levels = 0;
  int iterations = 0;       // total over all levels
};

// The reference side of a registration: u0 and its Gaussian-smoothed box
// pyramid (level 0 = finest). Build it once and register any number of
// images against it with the same options. u0 must pass check_image.
struct RegistrationReference {
  explicit RegistrationReference(util::Array2D<double> u0,
                                 const RegistrationOptions& opt);
  util::Array2D<double> u0;
  std::vector<util::Array2D<double>> levels;
};

// Registers u against the reference. u must have the shape of its u0 and
// pass check_image; otherwise std::invalid_argument.
[[nodiscard]] RegistrationResult register_fields(
    const util::Array2D<double>& u, const RegistrationReference& ref,
    const RegistrationOptions& opt);

// Registers u against u0 (both same shape).
[[nodiscard]] inline RegistrationResult register_fields(
    const util::Array2D<double>& u, const util::Array2D<double>& u0,
    const RegistrationOptions& opt = {}) {
  return register_fields(u, RegistrationReference(u0, opt), opt);
}

// Pyramid helpers (exposed for tests).
[[nodiscard]] util::Array2D<double> downsample2(
    const util::Array2D<double>& u);
[[nodiscard]] util::Array2D<double> gaussian_smooth(
    const util::Array2D<double>& u, double sigma);

}  // namespace wfire::morphing
