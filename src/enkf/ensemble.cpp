#include "enkf/ensemble.h"

#include <cmath>

namespace wfire::enkf {

double spread(const la::Matrix& X) {
  const int n = X.rows(), N = X.cols();
  if (N < 2) return 0.0;
  la::Vector mean(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < N; ++k) {
    const auto col = X.col(k);
    for (int i = 0; i < n; ++i) mean[i] += col[i];
  }
  const double inv = 1.0 / N;
  for (double& m : mean) m *= inv;
  double total = 0;
  for (int k = 0; k < N; ++k) {
    const auto col = X.col(k);
    for (int i = 0; i < n; ++i) {
      const double d = col[i] - mean[i];
      total += d * d;
    }
  }
  return std::sqrt(total / (static_cast<double>(n) * (N - 1)));
}

}  // namespace wfire::enkf
