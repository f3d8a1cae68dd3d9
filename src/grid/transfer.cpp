#include "grid/transfer.h"

#include <stdexcept>

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

}  // namespace wfire::grid
