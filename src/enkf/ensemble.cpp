#include "enkf/ensemble.h"

#include <cmath>
#include <stdexcept>

namespace wfire::enkf {

void ensemble_mean(const la::Matrix& X, la::Vector& mean) {
  const int n = X.rows(), N = X.cols();
  if (N == 0) throw std::invalid_argument("ensemble_mean: empty ensemble");
  mean.assign(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < N; ++k) {
    const auto col = X.col(k);
    for (int i = 0; i < n; ++i) mean[i] += col[i];
  }
  const double inv = 1.0 / N;
  for (double& m : mean) m *= inv;
}

la::Vector ensemble_mean(const la::Matrix& X) {
  la::Vector mean;
  ensemble_mean(X, mean);
  return mean;
}

void anomalies(const la::Matrix& X, const la::Vector& mean, la::Matrix& A) {
  const int n = X.rows(), N = X.cols();
  if (static_cast<int>(mean.size()) != n)
    throw std::invalid_argument("anomalies: mean size mismatch");
  A.resize(n, N);
  for (int k = 0; k < N; ++k) {
    const auto src = X.col(k);
    auto dst = A.col(k);
    for (int i = 0; i < n; ++i) dst[i] = src[i] - mean[i];
  }
}

void anomalies(const la::Matrix& X, la::Matrix& A) {
  la::Vector mean;
  ensemble_mean(X, mean);
  anomalies(X, mean, A);
}

la::Matrix anomalies(const la::Matrix& X) {
  la::Matrix A;
  anomalies(X, A);
  return A;
}

void inflate(la::Matrix& X, double factor) {
  if (factor == 1.0) return;
  const la::Vector mean = ensemble_mean(X);
  for (int k = 0; k < X.cols(); ++k) {
    auto col = X.col(k);
    for (int i = 0; i < X.rows(); ++i)
      col[i] = mean[i] + factor * (col[i] - mean[i]);
  }
}

double spread(const la::Matrix& X) {
  const int n = X.rows(), N = X.cols();
  if (N < 2) return 0.0;
  const la::Vector mean = ensemble_mean(X);
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
