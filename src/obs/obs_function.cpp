#include "obs/obs_function.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "levelset/fast_sweep.h"
#include "util/omp_compat.h"

namespace wfire::obs {

util::Array2D<double> heat_flux_image(const fire::FuelMap& fuel,
                                      const util::Array2D<double>& tig,
                                      double time) {
  util::Array2D<double> flux(tig.nx(), tig.ny(), 0.0);
  for (int j = 0; j < tig.ny(); ++j)
    for (int i = 0; i < tig.nx(); ++i) {
      const double ti = tig(i, j);
      if (ti == fire::kNotIgnited || ti > time) continue;
      const fire::FuelCategory* cat = fuel.at(i, j);
      if (cat == nullptr) continue;
      // Burn rate of the exponential fuel decay at age (time - tig):
      // dF/dt = exp(-age/tau)/tau; flux = w0 h (1 - latent) dF/dt.
      const double age = time - ti;
      const double rate = std::exp(-age / cat->tau) / cat->tau;
      flux(i, j) = cat->w0 * cat->h * (1.0 - cat->latent_fraction) * rate;
    }
  return flux;
}

namespace {

// Row j of the burning mask of f, -far where burning and +far elsewhere,
// written to out[0], out[step], ... A node burns when at least 5 of the 9
// values in its clamped 3x3 window exceed the threshold: exactly when the
// window's median (its 5th smallest value) does.
void mask_row(const util::Array2D<double>& f, int j, double threshold,
              double far, double* out, std::size_t step) {
  const int nx = f.nx();
  const double* rows[3] = {f.row(std::max(j - 1, 0)), f.row(j),
                           f.row(std::min(j + 1, f.ny() - 1))};
  for (int i = 0; i < nx; ++i) {
    const int il = std::max(i - 1, 0), ir = std::min(i + 1, nx - 1);
    int hot = 0;
    for (const double* r : rows)
      hot += (r[il] > threshold) + (r[i] > threshold) + (r[ir] > threshold);
    out[i * step] = hot >= 5 ? -far : far;
  }
}

}  // namespace

util::Array2D<double> front_distance_field(
    const util::Array2D<double>& flux, const grid::Grid2D& g,
    double threshold) {
  if (flux.nx() != g.nx || flux.ny() != g.ny)
    throw std::invalid_argument("front_distance_field: shape mismatch");
  const double far = g.width() + g.height();
  util::Array2D<double> dist(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    mask_row(flux, j, threshold, far, dist.row(j), 1);
  // A field with nothing burning has no interface: reinitialize leaves the
  // +far sentinel as it is.
  levelset::reinitialize(g, dist, 3);
  return dist;
}

void front_distance_fields(std::span<const util::Array2D<double>* const> flux,
                           const grid::Grid2D& g, double threshold,
                           std::span<util::Array2D<double>* const> out,
                           DistanceScratch& scratch) {
  const int lanes = static_cast<int>(flux.size());
  if (out.size() != flux.size())
    throw std::invalid_argument("front_distance_fields: out size mismatch");
  if (lanes == 0) return;
  for (const util::Array2D<double>* f : flux)
    if (f->nx() != g.nx || f->ny() != g.ny)
      throw std::invalid_argument("front_distance_fields: shape mismatch");
  const levelset::BatchLayout lay{g.nx, g.ny, lanes};
  scratch.lanes.resize(lay.size());
  double* soa = scratch.lanes.data();
  const double far = g.width() + g.height();
  const std::size_t stride = static_cast<std::size_t>(lanes);
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < g.ny; ++j)
    for (int l = 0; l < lanes; ++l)
      mask_row(*flux[l], j, threshold, far,
               soa + static_cast<std::size_t>(j) * g.nx * stride + l, stride);

  levelset::reinitialize_lanes(g, lay, lanes, soa, 3, scratch.dist);

  for (util::Array2D<double>* o : out)
    if (o->nx() != g.nx || o->ny() != g.ny)
      *o = util::Array2D<double>(g.nx, g.ny);
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < g.ny; ++j)
    for (int l = 0; l < lanes; ++l) {
      double* row = out[l]->row(j);
      const double* src = soa + static_cast<std::size_t>(j) * g.nx * stride + l;
      for (int i = 0; i < g.nx; ++i) row[i] = src[i * stride];
    }
}

void write_fire_state(const std::string& path, const fire::FireState& s) {
  Sections sections;
  sections["psi"].assign(s.psi.span().begin(), s.psi.span().end());
  sections["tig"].assign(s.tig.span().begin(), s.tig.span().end());
  sections["time"] = {s.time};
  sections["dims"] = {static_cast<double>(s.psi.nx()),
                      static_cast<double>(s.psi.ny())};
  StateFile::write(path, sections);
}

fire::FireState read_fire_state(const std::string& path, int nx, int ny) {
  const Sections sections = StateFile::read(path);
  const auto need = [&](const char* name) -> const std::vector<double>& {
    const auto it = sections.find(name);
    if (it == sections.end())
      throw std::runtime_error(std::string("read_fire_state: missing ") +
                               name + " in " + path);
    return it->second;
  };
  const auto& psi = need("psi");
  const auto& tig = need("tig");
  const auto& time = need("time");
  if (psi.size() != static_cast<std::size_t>(nx) * ny || psi.size() != tig.size())
    throw std::runtime_error("read_fire_state: size mismatch in " + path);
  fire::FireState s;
  s.psi = util::Array2D<double>(nx, ny);
  s.tig = util::Array2D<double>(nx, ny);
  std::copy(psi.begin(), psi.end(), s.psi.span().begin());
  std::copy(tig.begin(), tig.end(), s.tig.span().begin());
  s.time = time.at(0);
  return s;
}

util::Array2D<double> observation_function_file(const std::string& state_path,
                                                const std::string& synth_path,
                                                const fire::FuelMap& fuel,
                                                int nx, int ny) {
  const fire::FireState s = read_fire_state(state_path, nx, ny);
  util::Array2D<double> img = heat_flux_image(fuel, s.tig, s.time);
  Sections sections;
  sections["heat_flux"].assign(img.span().begin(), img.span().end());
  sections["dims"] = {static_cast<double>(nx), static_cast<double>(ny)};
  sections["time"] = {s.time};
  StateFile::write(synth_path, sections);
  return img;
}

}  // namespace wfire::obs
