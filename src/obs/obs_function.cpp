#include "obs/obs_function.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "levelset/fast_sweep.h"

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

util::Array2D<double> median3x3(const util::Array2D<double>& f) {
  util::Array2D<double> out(f.nx(), f.ny());
  for (int j = 0; j < f.ny(); ++j) {
    double window[9];
    for (int i = 0; i < f.nx(); ++i) {
      int n = 0;
      for (int b = -1; b <= 1; ++b)
        for (int a = -1; a <= 1; ++a)
          window[n++] = f.at_clamped(i + a, j + b);
      std::nth_element(window, window + 4, window + 9);
      out(i, j) = window[4];
    }
  }
  return out;
}

util::Array2D<double> front_distance_field(
    const util::Array2D<double>& flux, const grid::Grid2D& g,
    double threshold, bool denoise) {
  if (flux.nx() != g.nx || flux.ny() != g.ny)
    throw std::invalid_argument("front_distance_field: shape mismatch");
  const util::Array2D<double>& img = denoise ? median3x3(flux) : flux;
  const double far = g.width() + g.height();
  util::Array2D<double> dist(g.nx, g.ny, far);
  bool any = false;
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      if (img(i, j) > threshold) {
        dist(i, j) = -far;
        any = true;
      }
  if (!any) return dist;
  levelset::reinitialize(g, dist, 3);
  return dist;
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
