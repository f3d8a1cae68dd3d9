// The observation function (paper Fig. 2): maps a model state to the
// synthetic data that can be compared against real data. Two observables
// are provided:
//
//  - the instantaneous sensible heat flux image computed from (tig, time)
//    and the fuel map — the field shown in the paper's Figs. 1 and 4 and
//    the one the morphing EnKF registers on;
//  - the full infrared rendering path (scene module) for camera-grade
//    synthetic data (Fig. 3).
//
// The file-based variant mirrors the paper's pipeline: it reads a member
// state file, evaluates the observable, and writes a synthetic-data file.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fire/model.h"
#include "obs/statefile.h"
#include "util/array2d.h"

namespace wfire::obs {

// Instantaneous sensible heat flux [W/m^2] from the assimilable state.
[[nodiscard]] util::Array2D<double> heat_flux_image(
    const fire::FuelMap& fuel, const util::Array2D<double>& tig, double time);

// Signed distance [m] to the actively burning band (negative inside the
// band), built by fast sweeping. The band is {median3x3(flux) > threshold}
// after the 3x3 median denoise (clamped window), which removes isolated
// noise pixels that would punch false wells into the distance transform;
// it is evaluated as "at least 5 of the 9 window values exceed the
// threshold", the same mask without sorting. Heat-flux images are thin
// rings that alias away in registration pyramids; their distance transform
// is the smooth, large-scale field the morphing EnKF registers on — the
// role the level set function plays for the model state. Returns +`far`
// everywhere when nothing exceeds the threshold.
[[nodiscard]] util::Array2D<double> front_distance_field(
    const util::Array2D<double>& flux, const grid::Grid2D& g,
    double threshold);

// Caller-held scratch of front_distance_fields, reused across calls: the
// masks as one SoA field (one lane per image) and the lane kernel's
// distance scratch.
struct DistanceScratch {
  std::vector<double> lanes, dist;
};

// Batched front_distance_field: out[l] becomes
// front_distance_field(*flux[l], g, threshold) bitwise, for every l. All
// masks are built first, in parallel row blocks, then one
// levelset::reinitialize_lanes call redistances them together on the
// caller's OpenMP team. out[l] may alias flux[l]; an out array of another
// shape is reallocated.
void front_distance_fields(std::span<const util::Array2D<double>* const> flux,
                           const grid::Grid2D& g, double threshold,
                           std::span<util::Array2D<double>* const> out,
                           DistanceScratch& scratch);

// --- state <-> file packing (sections "psi", "tig", "time") ---

void write_fire_state(const std::string& path, const fire::FireState& s);

[[nodiscard]] fire::FireState read_fire_state(const std::string& path,
                                              int nx, int ny);

// File-based observation function: state file in, synthetic-data file out
// (section "heat_flux" plus the grid dims). Returns the image as well.
util::Array2D<double> observation_function_file(const std::string& state_path,
                                                const std::string& synth_path,
                                                const fire::FuelMap& fuel,
                                                int nx, int ny);

}  // namespace wfire::obs
