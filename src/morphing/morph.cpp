#include "morphing/morph.h"

#include <stdexcept>

#include "grid/interp.h"

namespace wfire::morphing {

void morph_residual(const util::Array2D<double>& u,
                    const util::Array2D<double>& u0, const Mapping& Tinv,
                    std::span<double> r) {
  if (!u.same_shape(u0) || !Tinv.tx.same_shape(u0) ||
      !Tinv.ty.same_shape(u0) || r.size() != u0.size())
    throw std::invalid_argument("morph_residual: shape mismatch");
  const int nx = u.nx(), ny = u.ny();
  std::size_t p = 0;
  for (int j = 0; j < ny; ++j) {
    const double* tx = Tinv.tx.row(j);
    const double* ty = Tinv.ty.row(j);
    const double* base = u0.row(j);
    for (int i = 0; i < nx; ++i, ++p) {
      const grid::BilinearStencil s(nx, ny, i + tx[i], j + ty[i]);
      r[p] = s.apply(u.data()) - base[i];
    }
  }
}

void morph_decode(const util::Array2D<double>& u0, std::span<const double> r,
                  const Mapping& T, util::Array2D<double>& out) {
  if (!T.tx.same_shape(u0) || r.size() != u0.size())
    throw std::invalid_argument("morph_decode: shape mismatch");
  util::Array2D<double> base = u0;
  std::size_t p = 0;
  for (double& v : base) v += r[p++];
  warp(base, T, out);
}

}  // namespace wfire::morphing
