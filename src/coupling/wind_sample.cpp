#include "coupling/wind_sample.h"

#include <stdexcept>

#include "grid/interp.h"
#include "grid/transfer.h"

namespace wfire::coupling {

MeshPairing make_pairing(const grid::Grid3D& atmos, int refine) {
  if (refine < 1) throw std::invalid_argument("make_pairing: refine < 1");
  MeshPairing pair;
  pair.refine = refine;
  // Atmos cell-center mesh: nodes at (i+0.5)*dx.
  pair.atmos_hor = grid::Grid2D(atmos.nx, atmos.ny, atmos.dx, atmos.dy,
                                0.5 * atmos.dx, 0.5 * atmos.dy);
  // Fire mesh: `refine` nodes per atmos cell, node (0,0) at the first cell
  // center, spacing dx/refine.
  pair.fire = grid::Grid2D(atmos.nx * refine, atmos.ny * refine,
                           atmos.dx / refine, atmos.dy / refine,
                           0.5 * atmos.dx, 0.5 * atmos.dy);
  return pair;
}

void sample_ground_wind(const grid::Grid3D& g, const atmos::AtmosState& s,
                        const MeshPairing& pair, util::Array2D<double>& fire_u,
                        util::Array2D<double>& fire_v) {
  // Destagger the lowest level to cell centers.
  util::Array2D<double> uc(g.nx, g.ny), vc(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) {
      double u0, v0;
      atmos::cell_center_wind(g, s, i, j, 0, u0, v0);
      uc(i, j) = u0;
      vc(i, j) = v0;
    }
  if (!fire_u.same_shape(fire_v) || fire_u.nx() != pair.fire.nx) {
    fire_u = util::Array2D<double>(pair.fire.nx, pair.fire.ny);
    fire_v = util::Array2D<double>(pair.fire.nx, pair.fire.ny);
  }
  for (int j = 0; j < pair.fire.ny; ++j) {
    for (int i = 0; i < pair.fire.nx; ++i) {
      const double px = pair.fire.x(i);
      const double py = pair.fire.y(j);
      fire_u(i, j) = grid::bilinear(pair.atmos_hor, uc, px, py);
      fire_v(i, j) = grid::bilinear(pair.atmos_hor, vc, px, py);
    }
  }
}

void aggregate_flux(const MeshPairing& pair,
                    const util::Array2D<double>& fire_flux,
                    util::Array2D<double>& atmos_flux) {
  if (fire_flux.nx() != pair.fire.nx || fire_flux.ny() != pair.fire.ny)
    throw std::invalid_argument("aggregate_flux: fire flux shape mismatch");
  if (atmos_flux.nx() != pair.atmos_hor.nx ||
      atmos_flux.ny() != pair.atmos_hor.ny)
    atmos_flux = util::Array2D<double>(pair.atmos_hor.nx, pair.atmos_hor.ny);
  grid::restrict_average(fire_flux, pair.refine, atmos_flux);
}

}  // namespace wfire::coupling
