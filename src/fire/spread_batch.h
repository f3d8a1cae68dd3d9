// Batched spread-rate evaluation for SoA ensembles (see levelset/batch.h for
// the layout contract). The per-cell fuel lookup is flattened once into
// plain coefficient arrays so the fused cells x members sweep does no
// pointer chasing; the per-node arithmetic is exactly spread.cpp /
// godunov.cpp normals order, so batched-vs-per-member agreement is bitwise.
#pragma once

#include <vector>

#include "fire/fuel.h"
#include "levelset/batch.h"

namespace wfire::fire {

// Per-cell spread-law coefficients flattened from a FuelMap (shared by all
// members — the ensemble perturbs state and forcing, not the fuel map).
struct SpreadTables {
  std::vector<double> R0, a, b, d, Smax;
  std::vector<double> tau;  // mass-loss e-folding time, for the fuel decay
  std::vector<unsigned char> burnable;  // 0 where the fuel index is -1

  [[nodiscard]] static SpreadTables build(const FuelMap& fuel);
};

// Evaluates S per member at each band cell from psi-derived normals and
// per-member uniform winds (wind_u/wind_v are member rows of length
// lay.stride — the ensemble-cycle forcing; padding lanes must be 0).
// Output `speed` is compact (band-major); cells with no fuel or exhausted
// fuel (fuel_frac <= min_fuel_frac) get S = 0. Returns the max S over the
// band — the CFL / band-travel bound for this step.
double spread_field_batch(const grid::Grid2D& g,
                          const levelset::BatchLayout& lay, const double* psi,
                          const double* fuel_frac, const double* wind_u,
                          const double* wind_v, const SpreadTables& tables,
                          const util::Array2D<double>& dzdx,
                          const util::Array2D<double>& dzdy,
                          double min_fuel_frac, const int* band, int nband,
                          double* speed);

}  // namespace wfire::fire
