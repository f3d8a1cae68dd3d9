// Blackbody radiometry for the synthetic infrared scene (paper Sec. 3.2).
// The WASP camera the paper renders for is a mid-wave (3-5 micrometer)
// imager; band radiance is integrated from the Planck function and inverted
// to brightness temperature for diagnostics.
#pragma once

namespace wfire::scene {

inline constexpr double kStefanBoltzmann = 5.670374419e-8;  // [W m^-2 K^-4]
inline constexpr double kMidwaveLo = 3.0e-6;                // [m]
inline constexpr double kMidwaveHi = 5.0e-6;                // [m]

// Spectral radiance B(lambda, T) [W m^-2 sr^-1 m^-1].
[[nodiscard]] double planck_spectral_radiance(double lambda_m, double T);

// Band-integrated radiance over [lo, hi] meters via midpoint quadrature
// with n panels [W m^-2 sr^-1].
[[nodiscard]] double band_radiance(double T, double lo = kMidwaveLo,
                                   double hi = kMidwaveHi, int n = 64);

// Inverts band_radiance by bisection; returns 0 for non-positive radiance.
[[nodiscard]] double brightness_temperature(double radiance,
                                            double lo = kMidwaveLo,
                                            double hi = kMidwaveHi);

}  // namespace wfire::scene
