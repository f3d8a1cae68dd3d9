// Fire -> atmosphere forcing. WRF (and WrfLite) has no flux boundary
// condition, so the paper inserts the fire's sensible and latent heat flux
// "by modifying the temperature and water vapor concentration over a depth
// of many cells, with exponential decay away from the boundary" (Sec. 2.3).
//
// Given a surface flux density Q [W/m^2] on the atmosphere's horizontal
// mesh, the potential-temperature tendency in cell (i, j, k) is
//
//   dtheta/dt(i,j,k) = Q(i,j) * W(z_k),   W(z) = exp(-z/h) / normalization,
//
// with the normalization chosen so the column integral of rho * cp * dtheta/dt
// equals Q exactly (the inserted energy matches the fire's heat release).
// Latent flux likewise with rho * Lv.
#pragma once

#include "grid/grid3d.h"
#include "util/array2d.h"
#include "util/array3d.h"

namespace wfire::coupling {

struct FluxInsertionParams {
  double decay_height = 120.0;  // e-folding depth h [m]
  double rho = 1.1;             // air density [kg/m^3]
  double cp = 1005.0;           // specific heat of air [J/(kg K)]
  double Lv = 2.5e6;            // latent heat of vaporization [J/kg]
};

class FluxInserter {
 public:
  FluxInserter(const grid::Grid3D& g, FluxInsertionParams p = {});

  // Converts surface flux maps (on the atmos horizontal mesh, W/m^2) into
  // volumetric tendencies. Outputs are sized (nx, ny, nz).
  void insert(const util::Array2D<double>& sensible,
              const util::Array2D<double>& latent,
              util::Array3D<double>& theta_src,
              util::Array3D<double>& qv_src) const;

  // Column weights W(z_k) [1/m]; sum_k W(z_k) * dz = 1. Exposed for tests
  // and for the flux-insertion ablation bench.
  [[nodiscard]] const std::vector<double>& weights() const { return w_; }

  [[nodiscard]] const FluxInsertionParams& params() const { return p_; }

 private:
  grid::Grid3D g_;
  FluxInsertionParams p_;
  std::vector<double> w_;
};

// Single-cell insertion (all heat in the lowest cell) used by the ablation
// bench to show why the paper spreads the flux over many cells.
void insert_single_cell(const grid::Grid3D& g, const FluxInsertionParams& p,
                        const util::Array2D<double>& sensible,
                        const util::Array2D<double>& latent,
                        util::Array3D<double>& theta_src,
                        util::Array3D<double>& qv_src);

}  // namespace wfire::coupling
