#include "enkf/kalman.h"

#include <stdexcept>

#include "la/blas.h"
#include "la/cholesky.h"
#include "la/reference.h"

namespace wfire::enkf {

KalmanState kalman_update(const KalmanState& prior, const la::Matrix& H,
                          const la::Vector& d, const la::Vector& r_std) {
  const int n = static_cast<int>(prior.mean.size());
  const int m = H.rows();
  if (H.cols() != n || static_cast<int>(d.size()) != m ||
      static_cast<int>(r_std.size()) != m)
    throw std::invalid_argument("kalman_update: size mismatch");

  // S = H P H^T + R, PHt = P H^T.
  const la::Matrix PHt = la::matmul(prior.cov, H, false, true);  // n x m
  la::Matrix S = la::matmul(H, PHt);                             // m x m
  for (int i = 0; i < m; ++i) S(i, i) += r_std[i] * r_std[i];
  const la::CholeskyResult chol = la::cholesky(S);

  // K^T = S^{-1} (PHt)^T  ->  K = PHt S^{-1} (S symmetric).
  const la::Matrix Kt = la::cholesky_solve(chol.L, PHt.transposed());  // m x n
  const la::Matrix K = Kt.transposed();                                // n x m

  KalmanState post;
  post.mean = prior.mean;
  la::Vector innov(d);
  la::Vector hm(static_cast<std::size_t>(m));
  la::reference::gemv(1.0, H, prior.mean, 0.0, hm);
  for (int i = 0; i < m; ++i) innov[i] = d[i] - hm[i];
  la::reference::gemv(1.0, K, innov, 1.0, post.mean);

  // P_a = (I - K H) P.
  la::Matrix KH = la::matmul(K, H);  // n x n
  la::Matrix ImKH = la::Matrix::identity(n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) ImKH(i, j) -= KH(i, j);
  post.cov = la::matmul(ImKH, prior.cov);
  return post;
}

KalmanState kalman_forecast(const KalmanState& state, const la::Matrix& M,
                            const la::Matrix& Q) {
  const int n = static_cast<int>(state.mean.size());
  if (M.rows() != n || M.cols() != n || Q.rows() != n || Q.cols() != n)
    throw std::invalid_argument("kalman_forecast: size mismatch");
  KalmanState out;
  out.mean.assign(static_cast<std::size_t>(n), 0.0);
  la::reference::gemv(1.0, M, state.mean, 0.0, out.mean);
  const la::Matrix MP = la::matmul(M, state.cov);
  out.cov = la::matmul(MP, M, false, true);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) out.cov(i, j) += Q(i, j);
  return out;
}

}  // namespace wfire::enkf
