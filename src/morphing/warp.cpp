#include "morphing/warp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "grid/interp.h"

namespace wfire::morphing {

namespace {

// Both components of T share one shape and pass check_image.
void check_mapping(const Mapping& T, const char* who) {
  if (!T.tx.same_shape(T.ty))
    throw std::invalid_argument(std::string(who) +
                                ": mapping components differ in shape");
  check_image(T.tx, who);
  check_image(T.ty, who);
}

}  // namespace

void check_image(const util::Array2D<double>& u, const char* who) {
  if (u.nx() < 2 || u.ny() < 2)
    throw std::invalid_argument(std::string(who) + ": image smaller than 2x2");
  if (!std::all_of(u.begin(), u.end(),
                   [](double v) { return std::isfinite(v); }))
    throw std::invalid_argument(std::string(who) + ": non-finite value");
}

double Mapping::max_norm() const {
  WFIRE_ASSERT(tx.same_shape(ty), "mapping components differ in shape");
  double m = 0;
  const std::span<const double> x = tx.span(), y = ty.span();
  for (std::size_t p = 0; p < x.size(); ++p)
    m = std::max(m, std::hypot(x[p], y[p]));
  return m;
}

void warp(const util::Array2D<double>& u, const Mapping& T,
          util::Array2D<double>& out) {
  check_image(u, "warp");
  check_mapping(T, "warp");
  if (!T.tx.same_shape(u))
    throw std::invalid_argument("warp: mapping shape differs from the image");
  const int nx = u.nx(), ny = u.ny();
  if (!out.same_shape(u)) out = util::Array2D<double>(nx, ny);
  for (int j = 0; j < ny; ++j) {
    const double* tx = T.tx.row(j);
    const double* ty = T.ty.row(j);
    double* o = out.row(j);
    for (int i = 0; i < nx; ++i) {
      const grid::BilinearStencil s(nx, ny, i + tx[i], j + ty[i]);
      o[i] = s.apply(u.data());
    }
  }
}

Mapping compose(const Mapping& T1, const Mapping& T2) {
  check_mapping(T1, "compose");
  check_mapping(T2, "compose");
  if (!T1.same_shape(T2))
    throw std::invalid_argument("compose: mappings differ in shape");
  const int nx = T1.nx(), ny = T1.ny();
  Mapping S(nx, ny);
  for (int j = 0; j < ny; ++j) {
    const double* t2x = T2.tx.row(j);
    const double* t2y = T2.ty.row(j);
    double* sx = S.tx.row(j);
    double* sy = S.ty.row(j);
    for (int i = 0; i < nx; ++i) {
      const grid::BilinearStencil s(nx, ny, i + t2x[i], j + t2y[i]);
      sx[i] = t2x[i] + s.apply(T1.tx.data());
      sy[i] = t2y[i] + s.apply(T1.ty.data());
    }
  }
  return S;
}

Mapping invert(const Mapping& T, int iters, double relax) {
  check_mapping(T, "invert");
  const int nx = T.nx(), ny = T.ny();
  const double keep = 1.0 - relax;
  Mapping inv(nx, ny);
  Mapping next(nx, ny);
  for (int it = 0; it < iters; ++it) {
    for (int j = 0; j < ny; ++j) {
      const double* ix = inv.tx.row(j);
      const double* iy = inv.ty.row(j);
      double* ox = next.tx.row(j);
      double* oy = next.ty.row(j);
      for (int i = 0; i < nx; ++i) {
        // One stencil at x + X samples both components of T.
        const grid::BilinearStencil s(nx, ny, i + ix[i], j + iy[i]);
        ox[i] = keep * ix[i] - relax * s.apply(T.tx.data());
        oy[i] = keep * iy[i] - relax * s.apply(T.ty.data());
      }
    }
    std::swap(inv, next);
  }
  return inv;
}

double inverse_error(const Mapping& T, const Mapping& Tinv) {
  return compose(T, Tinv).max_norm();
}

}  // namespace wfire::morphing
