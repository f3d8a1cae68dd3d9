// Helpers tying the assimilable fire state (psi, tig — paper Sec. 3.3) to
// flat vectors, images, and position diagnostics used by the assimilation
// cycle and its benches.
#pragma once

#include <cmath>

#include "fire/model.h"
#include "la/matrix.h"

namespace wfire::core {

// The unburned marker +inf in tig, and any other non-finite or larger
// ignition time, becomes kTigCap (a large finite sentinel) wherever tig
// enters the filter, so the EnKF linear algebra and the morphing warp see
// finite fields.
inline constexpr double kTigCap = 1.0e6;

[[nodiscard]] inline double capped_tig(double tig) {
  return std::isfinite(tig) && tig <= kTigCap ? tig : kTigCap;
}

// Flattens (psi, capped tig) into one vector [psi..., tig...].
[[nodiscard]] la::Vector pack_state(const fire::FireState& s);

// Centroid (x, y) of the burning region {psi < 0}, area-weighted on nodes;
// returns false if nothing burns. The Fig. 4 position-error metric.
bool burning_centroid(const grid::Grid2D& g, const util::Array2D<double>& psi,
                      double& cx, double& cy);

// Position error between two states: distance between burning centroids
// [m]; +inf when either has no fire.
[[nodiscard]] double centroid_distance(const grid::Grid2D& g,
                                       const util::Array2D<double>& psi_a,
                                       const util::Array2D<double>& psi_b);

// Symmetric-difference area between burned regions [m^2] (a stricter shape
// metric than the centroid distance).
[[nodiscard]] double symmetric_difference_area(
    const grid::Grid2D& g, const util::Array2D<double>& psi_a,
    const util::Array2D<double>& psi_b);

}  // namespace wfire::core
