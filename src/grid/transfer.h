// Transfer operators between the fine fire mesh and the coarse atmosphere
// mesh (paper Sec. 2.3: 6 m fire mesh inside a 60 m atmosphere mesh, 10:1).
// Restriction conserves integrals (block averaging of fluxes). Prolongation
// of the smooth winds onto the fire mesh is coupling::sample_ground_wind,
// which samples the atmosphere's lowest level with grid::bilinear.
#pragma once

#include "grid/grid2d.h"
#include "util/array2d.h"

namespace wfire::grid {

// Averages `ratio x ratio` blocks of fine node values onto a coarse field.
// fine dims must be coarse dims * ratio (node-per-cell convention). Because
// it averages, restricting a flux density preserves the mean flux density.
void restrict_average(const util::Array2D<double>& fine, int ratio,
                      util::Array2D<double>& coarse);

// Integral of a node field times the cell area (trapezoid weights at edges):
// used to verify flux conservation across the transfer.
[[nodiscard]] double integrate(const Grid2D& g,
                               const util::Array2D<double>& field);

}  // namespace wfire::grid
