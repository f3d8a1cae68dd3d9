// Ensemble containers and statistics. An ensemble of model states is stored
// as an n x N matrix (one member per column, contiguous), mirroring the
// paper's Fig. 2 where members live in separate files/processors and the
// EnKF operates on the collection.
#pragma once

#include "la/matrix.h"

namespace wfire::enkf {

// Column-wise mean of X (length n).
[[nodiscard]] la::Vector ensemble_mean(const la::Matrix& X);

// Same, into a caller-owned buffer (resized; allocation-free when reused).
void ensemble_mean(const la::Matrix& X, la::Vector& mean);

// A = X - mean * 1^T (anomaly matrix).
[[nodiscard]] la::Matrix anomalies(const la::Matrix& X);

// Same, into a caller-owned matrix (reshaped in place).
void anomalies(const la::Matrix& X, la::Matrix& A);

// Same, with the column mean already computed (fully allocation-free).
void anomalies(const la::Matrix& X, const la::Vector& mean, la::Matrix& A);

// Multiplicative inflation about the mean: X <- mean + factor * (X - mean).
void inflate(la::Matrix& X, double factor);

// Mean ensemble spread: sqrt( mean_i( var_i ) ) with the unbiased 1/(N-1)
// variance per coordinate. The scalar "uncertainty in the simulation,
// computed from the spread of the whole ensemble" (paper Fig. 2 caption).
[[nodiscard]] double spread(const la::Matrix& X);

}  // namespace wfire::enkf
