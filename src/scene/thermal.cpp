#include "scene/thermal.h"

#include <cmath>
#include <stdexcept>

namespace wfire::scene {

GroundThermalModel::GroundThermalModel(GroundThermalParams p) : p_(p) {
  if (p_.tau_rise <= 0 || p_.tau_cool <= p_.tau_rise)
    throw std::invalid_argument(
        "GroundThermalModel: need 0 < tau_rise < tau_cool");
  t_peak_ = std::log(p_.tau_cool / p_.tau_rise) /
            (1.0 / p_.tau_rise - 1.0 / p_.tau_cool);
  norm_ = std::exp(-t_peak_ / p_.tau_cool) - std::exp(-t_peak_ / p_.tau_rise);
}

double GroundThermalModel::temperature(double age) const {
  if (age <= 0) return p_.T_ambient;
  const double s = std::exp(-age / p_.tau_cool) - std::exp(-age / p_.tau_rise);
  return p_.T_ambient + (p_.T_peak - p_.T_ambient) * s / norm_;
}

void GroundThermalModel::temperature_map(const util::Array2D<double>& tig,
                                         double t,
                                         util::Array2D<double>& T_out) const {
  if (!T_out.same_shape(tig))
    T_out = util::Array2D<double>(tig.nx(), tig.ny());
  for (int j = 0; j < tig.ny(); ++j)
    for (int i = 0; i < tig.nx(); ++i) {
      const double ti = tig(i, j);
      T_out(i, j) = (ti == fire::kNotIgnited) ? p_.T_ambient
                                              : temperature(t - ti);
    }
}

}  // namespace wfire::scene
