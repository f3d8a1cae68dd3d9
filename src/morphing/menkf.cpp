#include "morphing/menkf.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace wfire::morphing {

namespace {

// The one input check of both analyses, run before any parallel region (a
// throw inside one would terminate the process): at least one member, every
// member with the same number (>= 1) of fields, every field shaped like the
// data image, and the data image and every field passing check_image.
void check_members(const std::vector<MorphMember>& members,
                   const util::Array2D<double>& data, const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (members.size() < 2) fail("need at least 2 members");
  const std::size_t nfields = members.front().fields.size();
  if (nfields == 0) fail("members have no fields");
  check_image(data, who);
  for (const auto& m : members) {
    if (m.fields.size() != nfields) fail("ragged members");
    for (const auto& f : m.fields) {
      if (!f.same_shape(data)) fail("field shape differs from the data image");
      check_image(f, who);
    }
  }
}

// The filter options the analysis divides by or scales with: each must be
// finite and > 0. Checked before the encode, so a bad option costs no
// registration.
void check_options(const MorphingEnKFOptions& opt) {
  const auto positive = [](double v, const char* name) {
    if (!std::isfinite(v) || v <= 0)
      throw std::invalid_argument(std::string("MorphingEnKF: ") + name +
                                  " must be finite and positive");
  };
  positive(opt.sigma_r, "sigma_r");
  positive(opt.sigma_T, "sigma_T");
  positive(opt.t_weight, "t_weight");
  positive(opt.inflation, "inflation");
}

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
  check_options(opt_);
  check_members(members, data, "MorphingEnKF");
  la::Workspace& arena = ws ? *ws : ws_;
  const std::size_t nfields = members.front().fields.size();
  const int N = static_cast<int>(members.size());
  const std::size_t npix = data.size();
  const double w = opt_.t_weight;

  // References: per-field ensemble means; field 0's registration pyramid is
  // built once for all N + 1 images.
  std::vector<util::Array2D<double>> u0(nfields);
  for (std::size_t f = 0; f < nfields; ++f) u0[f] = field_mean(members, f);
  const RegistrationReference ref(u0[0], opt_.reg);

  // Extended state: [r_f0, r_f1, ..., w*Tx, w*Ty]; the observation selects
  // [r_f0, w*Tx, w*Ty], the layout of the data vector d and of HX.
  const std::size_t t_row = nfields * npix;
  const int m = static_cast<int>(3 * npix);
  la::Matrix& X = arena.mat("menkf.X", static_cast<int>(t_row + 2 * npix), N);
  la::Matrix& HX = arena.mat("menkf.HX", m, N);
  la::Matrix& E = arena.mat("menkf.E", m, N);
  la::Vector& d = arena.vec("menkf.d", 3 * npix);
  la::Vector& r_std = arena.vec("menkf.r", 3 * npix);

  // Encode images 0..N-1 (the members, into X's and HX's columns) and image
  // N (the data image, into d): register field 0, invert its mapping once,
  // and write every field's residual and w*T. Task N + 1 draws the
  // analysis's observation perturbations into E, in enkf_analysis's order,
  // while the registrations run; the rng is restored if the analysis rejects
  // its input. Per-image slots are reduced in image order below, so the
  // stats do not depend on the thread schedule.
  const util::Rng rng_before = rng;
  std::vector<double> reg_res(static_cast<std::size_t>(N) + 1);
  std::vector<double> map_norm(static_cast<std::size_t>(N) + 1);
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
  for (int k = 0; k <= N + 1; ++k) {
    if (k == N + 1) {
      enkf::draw_perturbations(rng, E);
      continue;
    }
    const bool is_data = k == N;
    const auto image = [&](std::size_t f) -> const util::Array2D<double>& {
      return is_data ? data : members[k].fields[f];
    };
    const std::size_t nf = is_data ? 1 : nfields;
    const std::span<double> col = is_data ? std::span<double>(d) : X.col(k);

    const RegistrationResult reg = register_fields(image(0), ref, opt_.reg);
    reg_res[k] = reg.data_term;
    map_norm[k] = reg.T.max_norm();
    const Mapping Tinv = invert(reg.T);
    for (std::size_t f = 0; f < nf; ++f)
      morph_residual(image(f), u0[f], Tinv, col.subspan(f * npix, npix));
    const std::span<const double> tx = reg.T.tx.span(), ty = reg.T.ty.span();
    for (std::size_t p = 0; p < npix; ++p) {
      col[nf * npix + p] = w * tx[p];
      col[(nf + 1) * npix + p] = w * ty[p];
    }
    if (!is_data) {
      const auto hc = HX.col(k);
      std::copy_n(col.begin(), npix, hc.begin());
      std::copy_n(col.begin() + t_row, 2 * npix, hc.begin() + npix);
    }
  }

  MorphingStats stats;
  double reg_sum = 0;
  for (int k = 0; k < N; ++k) {
    reg_sum += reg_res[k];
    stats.max_mapping_norm = std::max(stats.max_mapping_norm, map_norm[k]);
  }
  stats.mean_registration_residual = reg_sum / N;
  stats.data_registration_residual = reg_res[N];

  std::fill_n(r_std.begin(), npix, opt_.sigma_r);
  std::fill(r_std.begin() + npix, r_std.end(), w * opt_.sigma_T);

  enkf::EnKFOptions eopt;
  eopt.inflation = opt_.inflation;
  eopt.workspace = &arena;
  try {
    stats.enkf = enkf::enkf_analysis_from_draws(X, HX, d, r_std, E, eopt);
  } catch (...) {
    rng = rng_before;
    throw;
  }

  // Decode: each member's analysed mapping, read once, moves all its fields.
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    Mapping T(data.nx(), data.ny());
    for (std::size_t p = 0; p < npix; ++p) {
      T.tx.data()[p] = xc[t_row + p] / w;
      T.ty.data()[p] = xc[t_row + npix + p] / w;
    }
    for (std::size_t f = 0; f < nfields; ++f)
      morph_decode(u0[f], xc.subspan(f * npix, npix), T, members[k].fields[f]);
  }
  return stats;
}

enkf::EnKFStats standard_enkf_on_fields(std::vector<MorphMember>& members,
                                        const util::Array2D<double>& data,
                                        double sigma_obs, double inflation,
                                        util::Rng& rng, la::Workspace* ws) {
  check_members(members, data, "standard_enkf_on_fields");
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
