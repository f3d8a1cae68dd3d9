// Ensemble statistics. An ensemble of model states is stored as an n x N
// matrix (one member per column, contiguous), mirroring the paper's Fig. 2
// where members live in separate files/processors and the EnKF operates on
// the collection.
#pragma once

#include "la/matrix.h"

namespace wfire::enkf {

// Mean ensemble spread: sqrt( mean_i( var_i ) ) with the unbiased 1/(N-1)
// variance per coordinate. The scalar "uncertainty in the simulation,
// computed from the spread of the whole ensemble" (paper Fig. 2 caption).
[[nodiscard]] double spread(const la::Matrix& X);

}  // namespace wfire::enkf
