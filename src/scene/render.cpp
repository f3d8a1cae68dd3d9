#include "scene/render.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>

#include "grid/interp.h"

namespace wfire::scene {

Renderer::Renderer(RenderParams p) : p_(p) {}

util::Array2D<double> Renderer::flame_irradiance(
    const grid::Grid2D& fire_grid, const FlameVoxels& flames) const {
  util::Array2D<double> E(fire_grid.nx, fire_grid.ny, 0.0);
  const auto& T = flames.temperature;
  if (flames.max_flame_length <= 0) return E;

  // Collect emitting voxels (subsampled) once; each acts as a small
  // Lambertian source of area dx*dy radiating B_band * (1 - exp(-kappa dz)).
  struct Source {
    double x, y, z, power;  // power = radiance * area [W/sr]
  };
  std::vector<Source> sources;
  const int stride = std::max(1, p_.irradiance_stride);
  const double emit_frac = 1.0 - std::exp(-flames.absorption * flames.dz);
  for (int k = 0; k < T.nz(); k += stride)
    for (int j = 0; j < T.ny(); j += stride)
      for (int i = 0; i < T.nx(); i += stride) {
        const double tv = T(i, j, k);
        if (tv <= 0) continue;
        const double rad = band_radiance(tv, p_.band_lo, p_.band_hi);
        sources.push_back({flames.x0 + i * flames.dx,
                           flames.y0 + j * flames.dy, (k + 0.5) * flames.dz,
                           rad * emit_frac * flames.dx * flames.dy *
                               stride * stride * stride});
      }
  if (sources.empty()) return E;

  // Source-major accumulation restricted to a cutoff radius: beyond ~100 m
  // the inverse-square contribution of a single flame voxel is negligible,
  // and the restriction keeps the cost O(sources * cutoff^2) instead of
  // O(sources * ground nodes).
  constexpr double kCutoff = 100.0;  // [m]
  const int bx = static_cast<int>(kCutoff / fire_grid.dx) + 1;
  const int by = static_cast<int>(kCutoff / fire_grid.dy) + 1;
  for (const Source& s : sources) {
    const int ic = static_cast<int>((s.x - fire_grid.x0) / fire_grid.dx + 0.5);
    const int jc = static_cast<int>((s.y - fire_grid.y0) / fire_grid.dy + 0.5);
    const int j0 = std::max(jc - by, 0), j1 = std::min(jc + by, fire_grid.ny - 1);
    const int i0 = std::max(ic - bx, 0), i1 = std::min(ic + bx, fire_grid.nx - 1);
    for (int j = j0; j <= j1; ++j) {
      for (int i = i0; i <= i1; ++i) {
        const double dx = s.x - fire_grid.x(i), dy = s.y - fire_grid.y(j);
        const double dz = s.z;
        const double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < 1.0 || r2 > kCutoff * kCutoff) continue;
        // cos(incidence at ground) = dz / r; inverse-square falloff.
        E(i, j) += s.power * dz / (r2 * std::sqrt(r2));
      }
    }
  }
  return E;
}

RenderedScene Renderer::render(const Camera& cam,
                               const grid::Grid2D& fire_grid,
                               const util::Array2D<double>& ground_T,
                               const FlameVoxels& flames) const {
  RenderedScene out;
  out.radiance = util::Array2D<double>(cam.npx, cam.npy, 0.0);
  out.brightness = util::Array2D<double>(cam.npx, cam.npy, 0.0);

  const util::Array2D<double> irr = flame_irradiance(fire_grid, flames);
  const double flame_top =
      flames.max_flame_length > 0
          ? flames.temperature.nz() * flames.dz
          : 0.0;
  const double eps = p_.ground_emissivity;

WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
  for (int pj = 0; pj < cam.npy; ++pj) {
    for (int pi = 0; pi < cam.npx; ++pi) {
      const Ray ray = cam.pixel_ray(pi, pj);

      // 1 & 2: march the ray through the flame slab [0, flame_top].
      double radiance = 0;
      double transmit = 1.0;
      if (flame_top > 0 && ray.dz < 0) {
        const double t_enter = (flame_top - ray.oz) / ray.dz;
        const double t_exit = (0.0 - ray.oz) / ray.dz;
        const double step = p_.march_step;
        for (double t = t_enter; t < t_exit; t += step) {
          const double px = ray.ox + t * ray.dx;
          const double py = ray.oy + t * ray.dy;
          const double pz = ray.oz + t * ray.dz;
          const int vi = static_cast<int>((px - flames.x0) / flames.dx + 0.5);
          const int vj = static_cast<int>((py - flames.y0) / flames.dy + 0.5);
          const int vk = static_cast<int>(pz / flames.dz);
          if (!flames.temperature.contains(vi, vj, vk)) continue;
          const double tv = flames.temperature(vi, vj, vk);
          if (tv <= 0) continue;
          const double absorbed = 1.0 - std::exp(-flames.absorption * step);
          radiance += transmit * absorbed *
                      band_radiance(tv, p_.band_lo, p_.band_hi);
          transmit *= 1.0 - absorbed;
          if (transmit < 1e-4) break;
        }
      }

      // Ground intersection; outside the fire grid the terrain radiates at
      // the ambient background temperature.
      const double tg = -ray.oz / ray.dz;
      const double gx = ray.ox + tg * ray.dx;
      const double gy = ray.oy + tg * ray.dy;
      double Tg = p_.background_temperature;
      double Eflame = 0;
      if (fire_grid.contains_point(gx, gy)) {
        Tg = grid::bilinear(fire_grid, ground_T, gx, gy);
        Eflame = grid::bilinear(fire_grid, irr, gx, gy);
      }
      if (Tg > 0) {
        // 1: ground emission;  3: reflected flame irradiance (Lambertian).
        const double ground = eps * band_radiance(Tg, p_.band_lo, p_.band_hi) +
                              (1.0 - eps) * Eflame / M_PI;
        radiance += transmit * ground;
      }

      radiance *= p_.atmos_transmittance;
      out.radiance(pi, pj) = radiance;
      out.brightness(pi, pj) =
          brightness_temperature(radiance, p_.band_lo, p_.band_hi);
    }
  }
  return out;
}

}  // namespace wfire::scene
