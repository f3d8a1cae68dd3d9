// Fuel categories for the semi-empirical spread model (paper Sec. 2.1,
// after Clark et al. 2004 / Rothermel 1972). Each category carries the
// spread-law coefficients (R0, a, b, d, Smax), the fuel load and the
// post-frontal mass-loss e-folding time ("rapid mass loss in grass, slow
// mass loss in larger fuel particles"), plus heat content and the
// sensible/latent flux split. The fuel moisture M is carried but read by no
// model: the spread law has no moisture term and the flux split is the
// fixed latent_fraction.
//
// Values are representative of the 13 Anderson (1982) fire-behavior
// categories; laboratory-exact coefficients are proprietary to the original
// experiments, so these are chosen to reproduce realistic spread rates
// (grass head fire ~ 1 m/s in strong wind, timber litter ~ cm/s).
#pragma once

#include <string>
#include <vector>

#include "util/array2d.h"

namespace wfire::fire {

struct FuelCategory {
  std::string name;
  // Spread law S = R0 + a * (v . n)^b + d * (grad z . n), clipped to
  // [0, Smax]. Units: R0, Smax [m/s]; a [ (m/s)^(1-b) ]; b, d dimensionless.
  double R0 = 0.02;
  double a = 0.30;
  double b = 1.20;
  double d = 0.10;
  double Smax = 2.0;
  // Fuel bed: load w0 [kg/m^2], mass-loss e-folding time tau [s], heat of
  // combustion h [J/kg], fuel moisture fraction M (mass water / dry mass;
  // no model reads it), and the fraction of released heat carried as
  // latent flux.
  double w0 = 0.5;
  double tau = 20.0;
  double h = 1.74e7;
  double M = 0.08;
  double latent_fraction = 0.15;
};

// The built-in 13-category catalog (index 0..12). Index 0 ("short grass")
// matches the paper's grassfire experiments.
[[nodiscard]] const std::vector<FuelCategory>& fuel_catalog();

enum : int {
  kFuelShortGrass = 0,
  kFuelTimberGrass = 1,
  kFuelTallGrass = 2,
  kFuelChaparral = 3,
  kFuelBrush = 4,
  kFuelDormantBrush = 5,
  kFuelSouthernRough = 6,
  kFuelClosedTimberLitter = 7,
  kFuelHardwoodLitter = 8,
  kFuelTimberUnderstory = 9,
  kFuelLightSlash = 10,
  kFuelMediumSlash = 11,
  kFuelHeavySlash = 12,
};

// A map of fuel category indices over a grid, with the catalog it refers to.
struct FuelMap {
  util::Array2D<int> index;              // per node, -1 = no fuel (firebreak)
  std::vector<FuelCategory> catalog = fuel_catalog();

  [[nodiscard]] const FuelCategory* at(int i, int j) const {
    const int c = index(i, j);
    if (c < 0) return nullptr;
    return &catalog[static_cast<std::size_t>(c)];
  }
};

// Uniform fuel map covering the whole grid with one category.
[[nodiscard]] FuelMap uniform_fuel(int nx, int ny, int category);

}  // namespace wfire::fire
