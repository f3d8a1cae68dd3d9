// Morphing tests: warp algebra (composition, inversion), registration
// recovery of known displacements across magnitudes, morphing transform
// endpoint identities (the corrected Eq. (1)), and the morphing EnKF moving
// a displaced fire toward the data — the paper's core Sec. 3.3 machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "morphing/menkf.h"
#include "morphing/morph.h"
#include "morphing/registration.h"
#include "morphing/warp.h"

using namespace wfire::morphing;
using wfire::util::Array2D;
using wfire::util::Rng;

namespace {

// Smooth blob centered at (cx, cy) in grid units.
Array2D<double> blob(int nx, int ny, double cx, double cy, double radius,
                     double amp = 1.0) {
  Array2D<double> u(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const double r2 = (i - cx) * (i - cx) + (j - cy) * (j - cy);
      u(i, j) = amp * std::exp(-r2 / (2.0 * radius * radius));
    }
  return u;
}

Mapping constant_mapping(int nx, int ny, double tx, double ty) {
  Mapping T(nx, ny);
  T.tx.fill(tx);
  T.ty.fill(ty);
  return T;
}

double max_field_diff(const Array2D<double>& a, const Array2D<double>& b,
                      int margin) {
  double m = 0;
  for (int j = margin; j < a.ny() - margin; ++j)
    for (int i = margin; i < a.nx() - margin; ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

// Encodes u against u0: the registration mapping T and the residual r.
struct Encoded {
  Array2D<double> r;
  Mapping T;
};
Encoded encode(const Array2D<double>& u, const Array2D<double>& u0) {
  Encoded e{Array2D<double>(u.nx(), u.ny()), register_fields(u, u0, {}).T};
  morph_residual(u, u0, invert(e.T), e.r.span());
  return e;
}

// The morphing path's state u_lambda: the decode of [lambda r, lambda T].
Array2D<double> morph_path(const Array2D<double>& u0, const Encoded& e,
                           double lambda) {
  Array2D<double> r = e.r;
  Mapping T = e.T;
  for (double& v : r) v *= lambda;
  for (double& v : T.tx) v *= lambda;
  for (double& v : T.ty) v *= lambda;
  Array2D<double> out;
  morph_decode(u0, r.span(), T, out);
  return out;
}

}  // namespace

TEST(Warp, IdentityMappingIsNoop) {
  const Array2D<double> u = blob(32, 32, 16, 16, 5);
  Mapping T(32, 32);
  Array2D<double> out;
  warp(u, T, out);
  EXPECT_LT(max_field_diff(u, out, 0), 1e-14);
}

TEST(Warp, ConstantShiftSamplesUpstream) {
  const Array2D<double> u = blob(64, 64, 32, 32, 6);
  // (I + T)(x) = x + (8, 0): out(i,j) = u(i+8, j) — the blob appears
  // shifted left by 8.
  const Mapping T = constant_mapping(64, 64, 8.0, 0.0);
  Array2D<double> out;
  warp(u, T, out);
  const Array2D<double> expected = blob(64, 64, 24, 32, 6);
  EXPECT_LT(max_field_diff(out, expected, 10), 1e-10);
}

TEST(Warp, CompositionMatchesSequentialWarp) {
  const Array2D<double> u = blob(64, 64, 36, 30, 6);
  const Mapping T1 = constant_mapping(64, 64, 4.0, -2.0);
  const Mapping T2 = constant_mapping(64, 64, -1.0, 3.0);
  // u o (I+T1) o (I+T2) == u o (I + compose(T1, T2)).
  Array2D<double> step1, step2, direct;
  warp(u, T1, step1);
  warp(step1, T2, step2);
  warp(u, compose(T1, T2), direct);
  EXPECT_LT(max_field_diff(step2, direct, 8), 1e-9);
}

TEST(Warp, InverseComposesToIdentity) {
  // Smooth non-constant mapping, well within the invertibility regime.
  Mapping T(48, 48);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i) {
      T.tx(i, j) = 2.0 * std::sin(2 * M_PI * j / 48.0);
      T.ty(i, j) = 1.5 * std::cos(2 * M_PI * i / 48.0);
    }
  const Mapping Tinv = invert(T);
  const Mapping round = compose(T, Tinv);  // (I+T) o (I+Tinv) ~ I
  EXPECT_LT(round.max_norm(), 0.05);
}

TEST(Warp, InverseErrorDiagnostic) {
  Mapping T(32, 32);
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) {
      T.tx(i, j) = 1.5 * std::sin(2 * M_PI * j / 32.0);
      T.ty(i, j) = 1.0 * std::cos(2 * M_PI * i / 32.0);
    }
  const Mapping good = invert(T, 40);
  const Mapping bad = invert(T, 1);
  EXPECT_LT(inverse_error(T, good), inverse_error(T, bad));
  EXPECT_LT(inverse_error(T, good), 0.02);
  // The identity mapping inverts to (numerically) zero error.
  const Mapping id(16, 16);
  EXPECT_NEAR(inverse_error(id, invert(id)), 0.0, 1e-12);
}

TEST(Warp, MaxNormReportsLargestDisplacement) {
  Mapping T(8, 8);
  T.tx(3, 3) = 3.0;
  T.ty(3, 3) = 4.0;
  EXPECT_DOUBLE_EQ(T.max_norm(), 5.0);
}

TEST(Registration, PyramidHelpers) {
  const Array2D<double> u = blob(32, 32, 16, 16, 5);
  const Array2D<double> down = downsample2(u);
  EXPECT_EQ(down.nx(), 16);
  EXPECT_EQ(down.ny(), 16);
  // Downsampling preserves the mean.
  EXPECT_NEAR(wfire::util::sum(down) * 4, wfire::util::sum(u), 1e-6);

  const Array2D<double> smooth = gaussian_smooth(u, 1.5);
  EXPECT_LT(wfire::util::max_value(smooth), wfire::util::max_value(u));
  // Mass conserved up to the clamped-boundary leakage (blob is interior).
  EXPECT_NEAR(wfire::util::sum(smooth), wfire::util::sum(u),
              1e-3 * wfire::util::sum(u));
}

class RegistrationShift
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(RegistrationShift, RecoversKnownTranslation) {
  const auto [sx, sy] = GetParam();
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 32, 32, 7, 100.0);
  const Array2D<double> u = blob(n, n, 32 - sx, 32 - sy, 7, 100.0);
  // u(x) = u0(x + s): registration u ~ u0 o (I+T) should find T ~ s.

  RegistrationOptions opt;
  const RegistrationResult res = register_fields(u, u0, opt);

  // Check the recovered displacement where the blob actually is.
  const int ci = static_cast<int>(32 - sx), cj = static_cast<int>(32 - sy);
  EXPECT_NEAR(res.T.tx(ci, cj), sx, 1.0);
  EXPECT_NEAR(res.T.ty(ci, cj), sy, 1.0);
  // And the data term dropped far below the unregistered mismatch.
  double raw = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double e = u(i, j) - u0(i, j);
      raw += e * e;
    }
  raw /= n * n;
  EXPECT_LT(res.data_term, 0.2 * raw);
}

INSTANTIATE_TEST_SUITE_P(Shifts, RegistrationShift,
                         ::testing::Values(std::pair{3.0, 0.0},
                                           std::pair{0.0, 4.0},
                                           std::pair{6.0, -5.0},
                                           std::pair{12.0, 9.0}));

TEST(Registration, IdenticalImagesGiveNearZeroMapping) {
  const Array2D<double> u0 = blob(48, 48, 24, 24, 6, 10.0);
  const RegistrationResult res = register_fields(u0, u0, {});
  EXPECT_LT(res.T.max_norm(), 0.3);
  EXPECT_LT(res.data_term, 1e-6);
}

TEST(Registration, RejectsShapeMismatch) {
  const Array2D<double> a = blob(32, 32, 16, 16, 4);
  const Array2D<double> b = blob(16, 16, 8, 8, 2);
  EXPECT_THROW(register_fields(a, b, {}), std::invalid_argument);
}

TEST(Morph, EndpointIdentities) {
  // u_0 = u0 and u_1 = u (up to interpolation error) for the corrected
  // Eq. (1): u_lambda = (u0 + lambda r) o (I + lambda T).
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 30, 32, 7, 50.0);
  const Array2D<double> u = blob(n, n, 38, 33, 8, 60.0);
  const Encoded rep = encode(u, u0);

  const Array2D<double> at0 = morph_path(u0, rep, 0.0);
  EXPECT_LT(max_field_diff(at0, u0, 2), 1e-10);

  Array2D<double> at1;
  morph_decode(u0, rep.r.span(), rep.T, at1);
  // The lambda = 1 endpoint is exact only up to the approximate inverse
  // composed with the forward mapping (first-order in the inversion
  // residual times the image gradient): bound the max pointwise error by
  // 30% of the amplitude and the mean error much tighter.
  EXPECT_LT(max_field_diff(at1, u, 6), 0.3 * 60.0);
  double mean_err = 0;
  for (int j = 6; j < n - 6; ++j)
    for (int i = 6; i < n - 6; ++i) mean_err += std::abs(at1(i, j) - u(i, j));
  mean_err /= (n - 12.0) * (n - 12.0);
  EXPECT_LT(mean_err, 0.03 * 60.0);
}

TEST(Morph, IntermediateStatesMoveMonotonically) {
  // The blob's peak location along the morphing path moves from the u0
  // center toward the u center as lambda goes 0 -> 1.
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 24, 32, 6, 10.0);
  const Array2D<double> u = blob(n, n, 40, 32, 6, 10.0);
  const Encoded rep = encode(u, u0);

  double prev_peak_x = -1;
  for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Array2D<double> ul = morph_path(u0, rep, lambda);
    int pi = 0, pj = 0;
    double best = -1;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (ul(i, j) > best) {
          best = ul(i, j);
          pi = i;
          pj = j;
        }
    (void)pj;
    EXPECT_GE(pi, prev_peak_x);  // monotone rightward motion
    prev_peak_x = pi;
  }
  EXPECT_GT(prev_peak_x, 34);  // ended near the data location
}

TEST(Morph, ResidualSmallWhenOnlyPositionDiffers) {
  // Position-only error: after registration the amplitude residual is small
  // — exactly why the morphing representation suits misplaced fires.
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 26, 30, 6, 10.0);
  const Array2D<double> u = blob(n, n, 36, 34, 6, 10.0);
  const Encoded rep = encode(u, u0);
  EXPECT_LT(wfire::util::max_value(rep.r), 3.0);  // << amplitude 10
  EXPECT_GT(rep.T.max_norm(), 5.0);               // position carried by T
}

TEST(MorphingEnKF, PullsDisplacedEnsembleTowardData) {
  // Miniature Fig. 4: ensemble of blobs at a wrong location, data at the
  // truth location. The morphing analysis must move the ensemble toward the
  // data; a standard pixelwise EnKF cannot move it nearly as far.
  const int n = 48;
  Rng rng(21);
  const double true_x = 30, wrong_x = 18, cy = 24;
  const Array2D<double> data = blob(n, n, true_x, cy, 5, 10.0);

  const auto make_members = [&](Rng& r) {
    std::vector<MorphMember> members;
    for (int k = 0; k < 12; ++k) {
      MorphMember m;
      m.fields.push_back(blob(n, n, wrong_x + r.normal() * 1.5,
                              cy + r.normal() * 1.5, 5, 10.0));
      members.push_back(std::move(m));
    }
    return members;
  };

  const auto centroid_x = [&](const Array2D<double>& f) {
    double sx = 0, sw = 0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (f(i, j) > 1.0) {
          sx += i * f(i, j);
          sw += f(i, j);
        }
    return sw > 0 ? sx / sw : 0.0;
  };

  // Morphing EnKF.
  Rng rng_m(22);
  std::vector<MorphMember> morph_members = make_members(rng_m);
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.5;
  MorphingEnKF filter(mopt);
  filter.analyze(morph_members, data, rng_m);
  double morph_mean_x = 0;
  for (const auto& m : morph_members) morph_mean_x += centroid_x(m.fields[0]);
  morph_mean_x /= morph_members.size();

  // Standard EnKF baseline.
  Rng rng_s(22);
  std::vector<MorphMember> std_members = make_members(rng_s);
  standard_enkf_on_fields(std_members, data, 0.5, 1.0, rng_s);
  double std_mean_x = 0;
  for (const auto& m : std_members) std_mean_x += centroid_x(m.fields[0]);
  std_mean_x /= std_members.size();

  // Morphing moved the fire most of the way to the truth.
  EXPECT_GT(morph_mean_x, wrong_x + 0.6 * (true_x - wrong_x));
  // And clearly beats the standard filter's position correction.
  EXPECT_GT(morph_mean_x, std_mean_x + 2.0);
}

TEST(MorphingEnKF, CompanionFieldsMoveWithTheObservable) {
  // Members carry a companion field; the analysis must move it coherently
  // with the registration field (shared mapping T).
  const int n = 48;
  Rng rng(31);
  const Array2D<double> data = blob(n, n, 30, 24, 5, 10.0);
  std::vector<MorphMember> members;
  for (int k = 0; k < 10; ++k) {
    MorphMember m;
    const double cx = 18 + rng.normal();
    m.fields.push_back(blob(n, n, cx, 24, 5, 10.0));      // observable
    m.fields.push_back(blob(n, n, cx, 24, 8, -20.0));     // companion (psi-ish)
    members.push_back(std::move(m));
  }
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.5;
  MorphingEnKF filter(mopt);
  filter.analyze(members, data, rng);

  // Companion minimum follows the observable peak.
  for (const auto& m : members) {
    int pi = 0, qi = 0;
    double best = -1, worst = 1;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        if (m.fields[0](i, j) > best) { best = m.fields[0](i, j); pi = i; }
        if (m.fields[1](i, j) < worst) { worst = m.fields[1](i, j); qi = i; }
      }
    EXPECT_NEAR(pi, qi, 4);
  }
}

TEST(MorphingEnKF, ValidatesInputs) {
  MorphingEnKF filter;
  std::vector<MorphMember> empty;
  Rng rng(1);
  Array2D<double> data(8, 8, 0.0);
  EXPECT_THROW(filter.analyze(empty, data, rng), std::invalid_argument);

  std::vector<MorphMember> ragged(2);
  ragged[0].fields.push_back(Array2D<double>(8, 8, 0.0));
  ragged[1].fields.push_back(Array2D<double>(8, 8, 0.0));
  ragged[1].fields.push_back(Array2D<double>(8, 8, 0.0));
  EXPECT_THROW(filter.analyze(ragged, data, rng), std::invalid_argument);

  // Members without fields, a member whose observable is shaped unlike the
  // others, and companions shaped unlike the data image are all rejected
  // before the parallel encode (where a throw would end the process).
  std::vector<MorphMember> fieldless(2);
  EXPECT_THROW(filter.analyze(fieldless, data, rng), std::invalid_argument);
  std::vector<MorphMember> misshapen(2);
  misshapen[0].fields.push_back(Array2D<double>(8, 8, 0.0));
  misshapen[1].fields.push_back(Array2D<double>(7, 7, 0.0));
  EXPECT_THROW(filter.analyze(misshapen, data, rng), std::invalid_argument);
  std::vector<MorphMember> companions(2);
  for (auto& m : companions) {
    m.fields.push_back(Array2D<double>(8, 8, 0.0));
    m.fields.push_back(Array2D<double>(9, 9, 0.0));
  }
  EXPECT_THROW(filter.analyze(companions, data, rng), std::invalid_argument);

  // The standard filter runs the same check: fields smaller or larger than
  // the image, ragged members, and members without fields.
  std::vector<MorphMember> fields8(2);
  for (auto& m : fields8) m.fields.push_back(Array2D<double>(8, 8, 0.0));
  for (const int n : {7, 9})
    EXPECT_THROW(standard_enkf_on_fields(fields8, Array2D<double>(n, n, 0.0),
                                         1.0, 1.0, rng),
                 std::invalid_argument)
        << n << "x" << n << " image";
  EXPECT_THROW(standard_enkf_on_fields(ragged, data, 1.0, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(standard_enkf_on_fields(fieldless, data, 1.0, 1.0, rng),
               std::invalid_argument);
}

TEST(MorphingEnKF, AnalyzeMatchesPerImageComposition) {
  // Bitwise oracle for analyze(), rebuilt from the public pieces: each of
  // the N members and the data image is registered against the field-0
  // ensemble mean, its mapping is inverted, every field's residual
  // r = u o (I+T)^{-1} - u0 goes into the extended state with w*T, the
  // stochastic EnKF runs on the same column layout, and each member is
  // decoded as (u0 + r) o (I + T).
  const int n = 41, N = 8, nf = 3;
  const int npix = n * n;
  Rng gen(41);
  std::vector<MorphMember> members(N);
  for (auto& m : members) {
    const double cx = 16 + 2.0 * gen.normal(), cy = 20 + 2.0 * gen.normal();
    m.fields.push_back(blob(n, n, cx, cy, 4, 10.0));
    m.fields.push_back(blob(n, n, cx, cy, 7, -20.0));
    m.fields.push_back(blob(n, n, cx + 1.0, cy - 1.0, 5, 3.0));
  }
  const Array2D<double> data = blob(n, n, 24, 21, 4, 10.0);
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.7;
  mopt.t_weight = 1.5;
  mopt.inflation = 1.1;
  const double w = mopt.t_weight;

  std::vector<Array2D<double>> u0(nf, Array2D<double>(n, n, 0.0));
  for (int f = 0; f < nf; ++f) {
    for (const auto& m : members)
      for (int p = 0; p < npix; ++p) u0[f].data()[p] += m.fields[f].data()[p];
    for (double& v : u0[f]) v *= 1.0 / N;
  }
  // Encodes one image: column = [r_0 .. r_{count-1}, w*Tx, w*Ty].
  const auto encode = [&](const std::vector<Array2D<double>>& fields,
                          int count, std::span<double> col) {
    const RegistrationResult reg = register_fields(fields[0], u0[0], mopt.reg);
    const Mapping Tinv = invert(reg.T);
    std::size_t pos = 0;
    for (int f = 0; f < count; ++f) {
      Array2D<double> warped;
      warp(fields[f], Tinv, warped);
      for (int p = 0; p < npix; ++p)
        col[pos++] = warped.data()[p] - u0[f].data()[p];
    }
    for (const double v : reg.T.tx) col[pos++] = w * v;
    for (const double v : reg.T.ty) col[pos++] = w * v;
    return reg;
  };
  wfire::la::Matrix X(nf * npix + 2 * npix, N), HX(3 * npix, N);
  double res_sum = 0, max_norm = 0;
  for (int k = 0; k < N; ++k) {
    const RegistrationResult reg = encode(members[k].fields, nf, X.col(k));
    res_sum += reg.data_term;
    max_norm = std::max(max_norm, reg.T.max_norm());
    for (int p = 0; p < 3 * npix; ++p)
      HX(p, k) = X(p < npix ? p : p + (nf - 1) * npix, k);
  }
  wfire::la::Vector d(3 * npix), r_std(3 * npix);
  const double data_res = encode({data}, 1, d).data_term;
  for (int p = 0; p < 3 * npix; ++p)
    r_std[p] = p < npix ? mopt.sigma_r : w * mopt.sigma_T;

  Rng rng_expected(77), rng_actual(77);
  wfire::la::Workspace ws;
  wfire::enkf::EnKFOptions eopt;
  eopt.inflation = mopt.inflation;
  eopt.path = mopt.path;
  eopt.workspace = &ws;
  wfire::enkf::enkf_analysis(X, HX, d, r_std, rng_expected, eopt);

  std::vector<MorphMember> expected = members;
  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    Mapping T(n, n);
    for (int p = 0; p < npix; ++p) {
      T.tx.data()[p] = xc[nf * npix + p] / w;
      T.ty.data()[p] = xc[nf * npix + npix + p] / w;
    }
    for (int f = 0; f < nf; ++f) {
      Array2D<double> base(n, n);
      for (int p = 0; p < npix; ++p)
        base.data()[p] = u0[f].data()[p] + xc[f * npix + p];
      warp(base, T, expected[k].fields[f]);
    }
  }

  MorphingEnKF filter(mopt);
  const MorphingStats stats = filter.analyze(members, data, rng_actual);
  EXPECT_EQ(stats.mean_registration_residual, res_sum / N);
  EXPECT_EQ(stats.data_registration_residual, data_res);
  EXPECT_EQ(stats.max_mapping_norm, max_norm);
  for (int k = 0; k < N; ++k)
    for (int f = 0; f < nf; ++f)
      EXPECT_TRUE(members[k].fields[f] == expected[k].fields[f])
          << "member " << k << " field " << f;
}
