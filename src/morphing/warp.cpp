#include "morphing/warp.h"

#include <algorithm>
#include <cmath>

#include "grid/interp.h"

namespace wfire::morphing {

double Mapping::max_norm() const {
  double m = 0;
  for (int j = 0; j < ty.ny(); ++j)
    for (int i = 0; i < tx.nx(); ++i)
      m = std::max(m, std::hypot(tx(i, j), ty(i, j)));
  return m;
}

void warp(const util::Array2D<double>& u, const Mapping& T,
          util::Array2D<double>& out) {
  if (!out.same_shape(u)) out = util::Array2D<double>(u.nx(), u.ny());
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i)
      out(i, j) = grid::bilinear_frac(u, i + T.tx(i, j), j + T.ty(i, j));
}

Mapping compose(const Mapping& T1, const Mapping& T2) {
  Mapping S(T1.nx(), T1.ny());
  for (int j = 0; j < S.ny(); ++j)
    for (int i = 0; i < S.nx(); ++i) {
      const double xi = i + T2.tx(i, j);
      const double yj = j + T2.ty(i, j);
      S.tx(i, j) = T2.tx(i, j) + grid::bilinear_frac(T1.tx, xi, yj);
      S.ty(i, j) = T2.ty(i, j) + grid::bilinear_frac(T1.ty, xi, yj);
    }
  return S;
}

Mapping invert(const Mapping& T, int iters, double relax) {
  Mapping inv(T.nx(), T.ny());
  Mapping next(T.nx(), T.ny());
  for (int it = 0; it < iters; ++it) {
    for (int j = 0; j < T.ny(); ++j)
      for (int i = 0; i < T.nx(); ++i) {
        const double xi = i + inv.tx(i, j);
        const double yj = j + inv.ty(i, j);
        next.tx(i, j) = (1.0 - relax) * inv.tx(i, j) -
                        relax * grid::bilinear_frac(T.tx, xi, yj);
        next.ty(i, j) = (1.0 - relax) * inv.ty(i, j) -
                        relax * grid::bilinear_frac(T.ty, xi, yj);
      }
    std::swap(inv, next);
  }
  return inv;
}

double inverse_error(const Mapping& T, const Mapping& Tinv) {
  return compose(T, Tinv).max_norm();
}

}  // namespace wfire::morphing
