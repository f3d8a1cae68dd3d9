#include "grid/transfer.h"

#include <stdexcept>

#include "grid/interp.h"

namespace wfire::grid {

void restrict_average(const util::Array2D<double>& fine, int ratio,
                      util::Array2D<double>& coarse) {
  if (ratio < 1) throw std::invalid_argument("restrict_average: ratio < 1");
  if (fine.nx() != coarse.nx() * ratio || fine.ny() != coarse.ny() * ratio)
    throw std::invalid_argument("restrict_average: dims mismatch");
  const double inv = 1.0 / (ratio * ratio);
  for (int J = 0; J < coarse.ny(); ++J) {
    for (int I = 0; I < coarse.nx(); ++I) {
      double s = 0;
      for (int b = 0; b < ratio; ++b)
        for (int a = 0; a < ratio; ++a) s += fine(I * ratio + a, J * ratio + b);
      coarse(I, J) = s * inv;
    }
  }
}

void prolong_bilinear(const util::Array2D<double>& coarse, int ratio,
                      util::Array2D<double>& fine) {
  if (ratio < 1) throw std::invalid_argument("prolong_bilinear: ratio < 1");
  const double inv = 1.0 / ratio;
  for (int j = 0; j < fine.ny(); ++j) {
    for (int i = 0; i < fine.nx(); ++i) {
      const double fi = i * inv;
      const double fj = j * inv;
      fine(i, j) = bilinear_frac(coarse, fi, fj);
    }
  }
}

double integrate(const Grid2D& g, const util::Array2D<double>& field) {
  if (field.nx() != g.nx || field.ny() != g.ny)
    throw std::invalid_argument("integrate: field does not match grid");
  double s = 0;
  for (int j = 0; j < g.ny; ++j) {
    const double wy = (j == 0 || j == g.ny - 1) ? 0.5 : 1.0;
    for (int i = 0; i < g.nx; ++i) {
      const double wx = (i == 0 || i == g.nx - 1) ? 0.5 : 1.0;
      s += wx * wy * field(i, j);
    }
  }
  return s * g.dx * g.dy;
}

}  // namespace wfire::grid
