#include "morphing/menkf.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wfire::morphing {

namespace {

// Ensemble mean of one field index across members.
util::Array2D<double> field_mean(const std::vector<MorphMember>& members,
                                 std::size_t f) {
  const auto& first = members.front().fields[f];
  util::Array2D<double> mean(first.nx(), first.ny(), 0.0);
  for (const auto& m : members)
    for (int j = 0; j < mean.ny(); ++j)
      for (int i = 0; i < mean.nx(); ++i) mean(i, j) += m.fields[f](i, j);
  const double inv = 1.0 / static_cast<double>(members.size());
  for (double& v : mean) v *= inv;
  return mean;
}

}  // namespace

MorphingStats MorphingEnKF::analyze(std::vector<MorphMember>& members,
                                    const util::Array2D<double>& data,
                                    util::Rng& rng, la::Workspace* ws) {
  la::Workspace& arena = ws ? *ws : ws_;
  if (members.empty()) throw std::invalid_argument("MorphingEnKF: no members");
  const std::size_t nfields = members.front().fields.size();
  for (const auto& m : members)
    if (m.fields.size() != nfields)
      throw std::invalid_argument("MorphingEnKF: ragged members");
  const int N = static_cast<int>(members.size());
  const int nx = data.nx(), ny = data.ny();
  if (!members.front().fields[0].same_shape(data))
    throw std::invalid_argument("MorphingEnKF: data shape mismatch");
  const int npix = nx * ny;

  MorphingStats stats;

  // References: per-field ensemble means.
  std::vector<util::Array2D<double>> u0(nfields);
  for (std::size_t f = 0; f < nfields; ++f) u0[f] = field_mean(members, f);

  // Encode members: register field 0, compute residuals for all fields with
  // the member's mapping.
  std::vector<Mapping> T(static_cast<std::size_t>(N));
  std::vector<std::vector<util::Array2D<double>>> R(
      static_cast<std::size_t>(N));
  double reg_res = 0;
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic) reduction(+ : reg_res))
  for (int k = 0; k < N; ++k) {
    RegistrationResult reg =
        register_fields(members[k].fields[0], u0[0], opt_.reg);
    reg_res += reg.data_term;
    T[k] = std::move(reg.T);
    R[k].resize(nfields);
    for (std::size_t f = 0; f < nfields; ++f)
      R[k][f] = morph_residual(members[k].fields[f], u0[f], T[k]);
  }
  stats.mean_registration_residual = reg_res / N;
  for (int k = 0; k < N; ++k)
    stats.max_mapping_norm = std::max(stats.max_mapping_norm, T[k].max_norm());

  // Data image in the same representation.
  RegistrationResult dreg = register_fields(data, u0[0], opt_.reg);
  stats.data_registration_residual = dreg.data_term;
  const util::Array2D<double> rd = morph_residual(data, u0[0], dreg.T);

  // Extended state: [r_f0, r_f1, ..., w*Tx, w*Ty], observation selects
  // [r_f0, w*Tx, w*Ty].
  const int n_state = static_cast<int>(nfields) * npix + 2 * npix;
  const int m_obs = 3 * npix;
  const double w = opt_.t_weight;

  la::Matrix& X = arena.mat("menkf.X", n_state, N);
  la::Matrix& HX = arena.mat("menkf.HX", m_obs, N);
  for (int k = 0; k < N; ++k) {
    auto xc = X.col(k);
    std::size_t pos = 0;
    for (std::size_t f = 0; f < nfields; ++f)
      for (const double v : R[k][f]) xc[pos++] = v;
    for (const double v : T[k].tx) xc[pos++] = w * v;
    for (const double v : T[k].ty) xc[pos++] = w * v;

    auto hc = HX.col(k);
    pos = 0;
    for (const double v : R[k][0]) hc[pos++] = v;
    for (const double v : T[k].tx) hc[pos++] = w * v;
    for (const double v : T[k].ty) hc[pos++] = w * v;
  }

  la::Vector& d = arena.vec("menkf.d", static_cast<std::size_t>(m_obs));
  la::Vector& r_std = arena.vec("menkf.r", static_cast<std::size_t>(m_obs));
  {
    std::size_t pos = 0;
    for (const double v : rd) {
      d[pos] = v;
      r_std[pos] = opt_.sigma_r;
      ++pos;
    }
    for (const double v : dreg.T.tx) {
      d[pos] = w * v;
      r_std[pos] = w * opt_.sigma_T;
      ++pos;
    }
    for (const double v : dreg.T.ty) {
      d[pos] = w * v;
      r_std[pos] = w * opt_.sigma_T;
      ++pos;
    }
  }

  enkf::EnKFOptions eopt;
  eopt.inflation = opt_.inflation;
  eopt.path = opt_.path;
  eopt.workspace = &arena;
  stats.enkf = enkf::enkf_analysis(X, HX, d, r_std, rng, eopt);

  // Decode members back to field form.
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    std::size_t pos = 0;
    MorphRep rep;
    rep.r = util::Array2D<double>(nx, ny);
    rep.T = Mapping(nx, ny);
    std::vector<util::Array2D<double>> residuals(nfields);
    for (std::size_t f = 0; f < nfields; ++f) {
      residuals[f] = util::Array2D<double>(nx, ny);
      for (double& v : residuals[f]) v = xc[pos++];
    }
    for (double& v : rep.T.tx) v = xc[pos++] / w;
    for (double& v : rep.T.ty) v = xc[pos++] / w;
    for (std::size_t f = 0; f < nfields; ++f) {
      rep.r = residuals[f];
      members[k].fields[f] = morph_decode(u0[f], rep);
    }
  }
  return stats;
}

enkf::EnKFStats standard_enkf_on_fields(std::vector<MorphMember>& members,
                                        const util::Array2D<double>& data,
                                        double sigma_obs, double inflation,
                                        util::Rng& rng, la::Workspace* ws) {
  if (members.empty())
    throw std::invalid_argument("standard_enkf_on_fields: no members");
  const std::size_t nfields = members.front().fields.size();
  const int N = static_cast<int>(members.size());
  const int npix = data.nx() * data.ny();
  const int n_state = static_cast<int>(nfields) * npix;

  la::Workspace local_ws;
  la::Workspace& arena = ws ? *ws : local_ws;
  la::Matrix& X = arena.mat("std.X", n_state, N);
  la::Matrix& HX = arena.mat("std.HX", npix, N);
  for (int k = 0; k < N; ++k) {
    auto xc = X.col(k);
    std::size_t pos = 0;
    for (std::size_t f = 0; f < nfields; ++f)
      for (const double v : members[k].fields[f]) xc[pos++] = v;
    auto hc = HX.col(k);
    pos = 0;
    for (const double v : members[k].fields[0]) hc[pos++] = v;
  }
  la::Vector& d = arena.vec("std.d", static_cast<std::size_t>(npix));
  la::Vector& r_std = arena.vec("std.r", static_cast<std::size_t>(npix));
  {
    std::size_t pos = 0;
    for (const double v : data) d[pos++] = v;
    std::fill(r_std.begin(), r_std.end(), sigma_obs);
  }
  enkf::EnKFOptions opt;
  opt.inflation = inflation;
  opt.workspace = &arena;
  const enkf::EnKFStats stats = enkf::enkf_analysis(X, HX, d, r_std, rng, opt);

  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    std::size_t pos = 0;
    for (std::size_t f = 0; f < nfields; ++f)
      for (double& v : members[k].fields[f]) v = xc[pos++];
  }
  return stats;
}

}  // namespace wfire::morphing
