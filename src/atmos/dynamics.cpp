#include "atmos/dynamics.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>

namespace wfire::atmos {

namespace {

inline int wrap(int i, int n) { return (i + n) % n; }

// Upwind one-sided derivative picked by the sign of the advecting velocity.
inline double upwind(double vel, double backward, double forward) {
  return vel > 0 ? vel * backward : vel * forward;
}

}  // namespace

void compute_tendencies(const grid::Grid3D& g, const AmbientProfile& amb,
                        const DynamicsParams& p, const AtmosState& s,
                        const util::Array3D<double>* theta_src,
                        const util::Array3D<double>* qv_src, Tendencies& t) {
  const int nx = g.nx, ny = g.ny, nz = g.nz;
  if (t.du.empty() || t.du.nx() != nx) t = Tendencies(g);
  const double ihx = 1.0 / g.dx, ihy = 1.0 / g.dy, ihz = 1.0 / g.dz;
  const double nu = p.eddy_viscosity, kappa = p.eddy_diffusivity;
  const double sponge_z0 = p.sponge_start_frac * g.height();

  // ---- scalar advection in flux form + diffusion + sources ----
  auto scalar_tendency = [&](const util::Array3D<double>& f,
                             const util::Array3D<double>* src,
                             util::Array3D<double>& out) {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          // Upwinded face fluxes; the x-face i carries u(i,j,k).
          auto fx = [&](int ii) {
            const double vel = s.u(ii, j, k);
            return vel * (vel > 0 ? f(wrap(ii - 1, nx), j, k) : f(ii, j, k));
          };
          auto fy = [&](int jj) {
            const double vel = s.v(i, jj, k);
            return vel * (vel > 0 ? f(i, wrap(jj - 1, ny), k) : f(i, jj, k));
          };
          auto fz = [&](int kk) {  // kk in [0, nz]; boundary faces carry 0
            if (kk == 0 || kk == nz) return 0.0;
            const double vel = s.w(i, j, kk);
            return vel * (vel > 0 ? f(i, j, kk - 1) : f(i, j, kk));
          };
          double adv = -(fx(wrap(i + 1, nx)) - fx(i)) * ihx -
                       (fy(wrap(j + 1, ny)) - fy(j)) * ihy -
                       (fz(k + 1) - fz(k)) * ihz;
          // Diffusion (clamped vertically: no-flux through bottom/top).
          const double c = f(i, j, k);
          const double lap =
              (f(wrap(i - 1, nx), j, k) - 2 * c + f(wrap(i + 1, nx), j, k)) *
                  ihx * ihx +
              (f(i, wrap(j - 1, ny), k) - 2 * c + f(i, wrap(j + 1, ny), k)) *
                  ihy * ihy +
              ((k > 0 ? f(i, j, k - 1) : c) - 2 * c +
               (k < nz - 1 ? f(i, j, k + 1) : c)) *
                  ihz * ihz;
          double val = adv + kappa * lap;
          if (src) val += (*src)(i, j, k);
          // Sponge relaxes perturbations to zero aloft.
          const double z = g.zc(k);
          if (z > sponge_z0) {
            const double r = (z - sponge_z0) / (g.height() - sponge_z0);
            val -= p.sponge_coeff * r * r * c;
          }
          out(i, j, k) = val;
        }
      }
    }
  };
  scalar_tendency(s.theta, theta_src, t.dtheta);
  scalar_tendency(s.qv, qv_src, t.dqv);

  // ---- u momentum (x-faces) ----
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int k = 0; k < nz; ++k) {
    const double z = g.zc(k);
    const double uamb = amb.wind_u * amb.wind_profile(z);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double uu = s.u(i, j, k);
        // v and w averaged to the u-point (face between cells i-1 and i).
        const int im = wrap(i - 1, nx);
        const double vv = 0.25 * (s.v(i, j, k) + s.v(i, wrap(j + 1, ny), k) +
                                  s.v(im, j, k) + s.v(im, wrap(j + 1, ny), k));
        const double ww = 0.25 * (s.w(i, j, k) + s.w(i, j, k + 1) +
                                  s.w(im, j, k) + s.w(im, j, k + 1));
        const double dudx_b = (uu - s.u(im, j, k)) * ihx;
        const double dudx_f = (s.u(wrap(i + 1, nx), j, k) - uu) * ihx;
        const double dudy_b = (uu - s.u(i, wrap(j - 1, ny), k)) * ihy;
        const double dudy_f = (s.u(i, wrap(j + 1, ny), k) - uu) * ihy;
        const double dudz_b = k > 0 ? (uu - s.u(i, j, k - 1)) * ihz : 0.0;
        const double dudz_f = k < nz - 1 ? (s.u(i, j, k + 1) - uu) * ihz : 0.0;
        double adv = -(upwind(uu, dudx_b, dudx_f) + upwind(vv, dudy_b, dudy_f) +
                       upwind(ww, dudz_b, dudz_f));
        const double lap =
            (s.u(im, j, k) - 2 * uu + s.u(wrap(i + 1, nx), j, k)) * ihx * ihx +
            (s.u(i, wrap(j - 1, ny), k) - 2 * uu + s.u(i, wrap(j + 1, ny), k)) *
                ihy * ihy +
            ((k > 0 ? s.u(i, j, k - 1) : uu) - 2 * uu +
             (k < nz - 1 ? s.u(i, j, k + 1) : uu)) *
                ihz * ihz;
        double val = adv + nu * lap;
        // Bulk surface drag on the lowest level.
        if (k == 0) {
          const double speed = std::hypot(uu, vv);
          val -= p.drag_coeff * speed * uu * ihz;
        }
        // Sponge + weak nudge toward the ambient profile.
        double relax = p.nudge_coeff;
        if (z > sponge_z0) {
          const double r = (z - sponge_z0) / (g.height() - sponge_z0);
          relax += p.sponge_coeff * r * r;
        }
        val -= relax * (uu - uamb);
        t.du(i, j, k) = val;
      }
    }
  }

  // ---- v momentum (y-faces) ----
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int k = 0; k < nz; ++k) {
    const double z = g.zc(k);
    const double vamb = amb.wind_v * amb.wind_profile(z);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double vv = s.v(i, j, k);
        const int jm = wrap(j - 1, ny);
        const double uu = 0.25 * (s.u(i, j, k) + s.u(wrap(i + 1, nx), j, k) +
                                  s.u(i, jm, k) + s.u(wrap(i + 1, nx), jm, k));
        const double ww = 0.25 * (s.w(i, j, k) + s.w(i, j, k + 1) +
                                  s.w(i, jm, k) + s.w(i, jm, k + 1));
        const double dvdx_b = (vv - s.v(wrap(i - 1, nx), j, k)) * ihx;
        const double dvdx_f = (s.v(wrap(i + 1, nx), j, k) - vv) * ihx;
        const double dvdy_b = (vv - s.v(i, jm, k)) * ihy;
        const double dvdy_f = (s.v(i, wrap(j + 1, ny), k) - vv) * ihy;
        const double dvdz_b = k > 0 ? (vv - s.v(i, j, k - 1)) * ihz : 0.0;
        const double dvdz_f = k < nz - 1 ? (s.v(i, j, k + 1) - vv) * ihz : 0.0;
        double adv = -(upwind(uu, dvdx_b, dvdx_f) + upwind(vv, dvdy_b, dvdy_f) +
                       upwind(ww, dvdz_b, dvdz_f));
        const double lap =
            (s.v(wrap(i - 1, nx), j, k) - 2 * vv + s.v(wrap(i + 1, nx), j, k)) *
                ihx * ihx +
            (s.v(i, jm, k) - 2 * vv + s.v(i, wrap(j + 1, ny), k)) * ihy * ihy +
            ((k > 0 ? s.v(i, j, k - 1) : vv) - 2 * vv +
             (k < nz - 1 ? s.v(i, j, k + 1) : vv)) *
                ihz * ihz;
        double val = adv + nu * lap;
        if (k == 0) {
          const double speed = std::hypot(uu, vv);
          val -= p.drag_coeff * speed * vv * ihz;
        }
        double relax = p.nudge_coeff;
        if (z > sponge_z0) {
          const double r = (z - sponge_z0) / (g.height() - sponge_z0);
          relax += p.sponge_coeff * r * r;
        }
        val -= relax * (vv - vamb);
        t.dv(i, j, k) = val;
      }
    }
  }

  // ---- w momentum (z-faces, interior only) ----
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int k = 1; k < nz; ++k) {
    const double zf = k * g.dz;  // face height
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double ww = s.w(i, j, k);
        const double uu =
            0.25 * (s.u(i, j, k - 1) + s.u(wrap(i + 1, nx), j, k - 1) +
                    s.u(i, j, k) + s.u(wrap(i + 1, nx), j, k));
        const double vv =
            0.25 * (s.v(i, j, k - 1) + s.v(i, wrap(j + 1, ny), k - 1) +
                    s.v(i, j, k) + s.v(i, wrap(j + 1, ny), k));
        const double dwdx_b = (ww - s.w(wrap(i - 1, nx), j, k)) * ihx;
        const double dwdx_f = (s.w(wrap(i + 1, nx), j, k) - ww) * ihx;
        const double dwdy_b = (ww - s.w(i, wrap(j - 1, ny), k)) * ihy;
        const double dwdy_f = (s.w(i, wrap(j + 1, ny), k) - ww) * ihy;
        const double dwdz_b = (ww - s.w(i, j, k - 1)) * ihz;
        const double dwdz_f = (s.w(i, j, k + 1) - ww) * ihz;
        double adv = -(upwind(uu, dwdx_b, dwdx_f) + upwind(vv, dwdy_b, dwdy_f) +
                       upwind(ww, dwdz_b, dwdz_f));
        const double lap =
            (s.w(wrap(i - 1, nx), j, k) - 2 * ww + s.w(wrap(i + 1, nx), j, k)) *
                ihx * ihx +
            (s.w(i, wrap(j - 1, ny), k) - 2 * ww + s.w(i, wrap(j + 1, ny), k)) *
                ihy * ihy +
            (s.w(i, j, k - 1) - 2 * ww + s.w(i, j, k + 1)) * ihz * ihz;
        // Buoyancy from theta' (and optionally qv') averaged to the face.
        double thp = 0.5 * (s.theta(i, j, k - 1) + s.theta(i, j, k));
        if (p.moisture_buoyancy)
          thp += 0.61 * amb.theta0 * 0.5 * (s.qv(i, j, k - 1) + s.qv(i, j, k));
        double val = adv + nu * lap + p.gravity * thp / amb.theta0;
        if (zf > sponge_z0) {
          const double r = (zf - sponge_z0) / (g.height() - sponge_z0);
          val -= p.sponge_coeff * r * r * ww;
        }
        t.dw(i, j, k) = val;
      }
    }
  }
  // Boundary w faces have zero tendency.
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      t.dw(i, j, 0) = 0.0;
      t.dw(i, j, nz) = 0.0;
    }
}

void apply_tendencies(const grid::Grid3D& g, const Tendencies& t, double dt,
                      AtmosState& s) {
  const auto add = [dt](const util::Array3D<double>& src,
                        util::Array3D<double>& dst) {
    const double* a = src.data();
    double* b = dst.data();
    const std::size_t n = dst.size();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i)
      b[i] += dt * a[i];
  };
  add(t.du, s.u);
  add(t.dv, s.v);
  add(t.dw, s.w);
  add(t.dtheta, s.theta);
  add(t.dqv, s.qv);
  // Pin the rigid-lid/bottom w faces.
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) {
      s.w(i, j, 0) = 0.0;
      s.w(i, j, g.nz) = 0.0;
    }
}

}  // namespace wfire::atmos
