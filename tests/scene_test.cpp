// Synthetic scene tests: Planck radiometry round trips, the paper's
// double-exponential ground thermal model (75 s / 250 s, 1075 K peak),
// flame voxelization (Byram length, wind tilt), rendering term structure,
// and FRE magnitudes against the published satellite-derived range.
#include <gtest/gtest.h>

#include <cmath>

#include "scene/camera.h"
#include "scene/flame.h"
#include "scene/fre.h"
#include "scene/planck.h"
#include "scene/render.h"
#include "scene/thermal.h"

using namespace wfire::scene;
using namespace wfire;

TEST(Planck, SpectralRadianceBasics) {
  // Hotter is brighter at every wavelength.
  EXPECT_GT(planck_spectral_radiance(4e-6, 1000.0),
            planck_spectral_radiance(4e-6, 500.0));
  // Wien: at 1000 K the peak (~2.9 um) lies below 4 um, so radiance at 3 um
  // exceeds radiance at 5 um... check monotonicity across our band edges.
  EXPECT_GT(planck_spectral_radiance(3.0e-6, 1000.0),
            planck_spectral_radiance(5.0e-6, 1000.0) * 0.5);
  EXPECT_EQ(planck_spectral_radiance(4e-6, 0.0), 0.0);
  EXPECT_THROW((void)planck_spectral_radiance(-1.0, 300.0),
               std::invalid_argument);
}

TEST(Planck, BandRadianceMonotoneInTemperature) {
  double prev = 0;
  for (double T = 250; T <= 1400; T += 50) {
    const double L = band_radiance(T);
    EXPECT_GT(L, prev);
    prev = L;
  }
}

class BrightnessParam : public ::testing::TestWithParam<double> {};

TEST_P(BrightnessParam, BrightnessTemperatureRoundTrip) {
  const double T = GetParam();
  const double L = band_radiance(T);
  EXPECT_NEAR(brightness_temperature(L), T, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Temps, BrightnessParam,
                         ::testing::Values(280.0, 300.0, 500.0, 800.0, 1075.0,
                                           1500.0));

TEST(Thermal, PaperConstantsPeakAtExactly1075K) {
  GroundThermalModel model;  // defaults = paper values
  const double tp = model.peak_time();
  // Analytic peak of the double exponential with tau 75/250.
  const double expected =
      std::log(250.0 / 75.0) / (1.0 / 75.0 - 1.0 / 250.0);
  EXPECT_NEAR(tp, expected, 1e-9);
  EXPECT_NEAR(model.temperature(tp), 1075.0, 1e-9);
}

TEST(Thermal, AmbientBeforeArrivalAndCoolingAfterPeak) {
  GroundThermalModel model;
  EXPECT_DOUBLE_EQ(model.temperature(-5.0), 300.0);
  EXPECT_DOUBLE_EQ(model.temperature(0.0), 300.0);
  const double tp = model.peak_time();
  EXPECT_GT(model.temperature(tp / 2), model.temperature(tp / 10));
  EXPECT_GT(model.temperature(tp), model.temperature(tp * 3));
  // Cooling tail: e-folding on the 250 s scale.
  const double late1 = model.temperature(1000.0) - 300.0;
  const double late2 = model.temperature(1250.0) - 300.0;
  EXPECT_NEAR(late2 / late1, std::exp(-250.0 / 250.0), 0.02);
}

TEST(Thermal, RejectsBadTimeConstants) {
  GroundThermalParams p;
  p.tau_rise = 300.0;  // must be < tau_cool
  EXPECT_THROW(GroundThermalModel{p}, std::invalid_argument);
}

TEST(Thermal, TemperatureMapUsesIgnitionTimes) {
  GroundThermalModel model;
  util::Array2D<double> tig(4, 4, fire::kNotIgnited);
  tig(1, 1) = 0.0;    // burned at t=0
  tig(2, 2) = 100.0;  // burned at t=100
  util::Array2D<double> T;
  model.temperature_map(tig, 129.0, T);
  EXPECT_DOUBLE_EQ(T(0, 0), 300.0);                       // never burned
  EXPECT_NEAR(T(2, 2), model.temperature(29.0), 1e-12);   // young burn
  EXPECT_NEAR(T(1, 1), model.temperature(129.0), 1e-12);  // older burn
  EXPECT_GT(T(1, 1), T(2, 2));  // 129 s is just past peak; 29 s still rising
}

TEST(Flame, ByramLengthScalesWithIntensity) {
  EXPECT_DOUBLE_EQ(byram_flame_length(0.0), 0.0);
  const double l100 = byram_flame_length(100.0);
  const double l1000 = byram_flame_length(1000.0);
  EXPECT_NEAR(l100, 0.0775 * std::pow(100.0, 0.46), 1e-12);
  EXPECT_GT(l1000, l100);
  // Grass-fire range: I ~ 1000 kW/m -> L ~ 1.8 m. Sanity check magnitude.
  EXPECT_GT(l1000, 1.0);
  EXPECT_LT(l1000, 4.0);
}

namespace {

// A small burning fire model for voxelization tests.
fire::FireModel burning_model() {
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  fire::FireModel model(g, fire::uniform_fuel(g.nx, g.ny,
                                              fire::kFuelShortGrass),
                        fire::terrain_flat(g));
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 30.0, 0.0}}});
  for (int s = 0; s < 20; ++s) model.step_uniform_wind(0.5, 3.0, 0.0);
  return model;
}

}  // namespace

TEST(Flame, VoxelsExistOverBurningCellsOnly) {
  fire::FireModel model = burning_model();
  util::Array2D<double> wu(41, 41, 3.0), wv(41, 41, 0.0);
  const FlameVoxels fv = build_flame_voxels(model, wu, wv);
  EXPECT_GT(fv.max_flame_length, 0.1);
  EXPECT_GT(fv.temperature.nz(), 0);

  // Some voxel is hot; corners (never burned) have no flame column.
  EXPECT_GT(util::max_abs(fv.temperature), 500.0);
  for (int k = 0; k < fv.temperature.nz(); ++k) {
    EXPECT_DOUBLE_EQ(fv.temperature(0, 0, k), 0.0);
    EXPECT_DOUBLE_EQ(fv.temperature(40, 40, k), 0.0);
  }
}

TEST(Flame, WindTiltsColumnsDownwind) {
  fire::FireModel model = burning_model();
  util::Array2D<double> wu(41, 41, 12.0), wv(41, 41, 0.0);  // strong wind
  FlameParams p;
  p.voxel_dz = 0.5;
  const FlameVoxels fv = build_flame_voxels(model, wu, wv, p);
  // Center of mass of flame voxels shifts +x with height.
  double x_low = 0, n_low = 0, x_high = 0, n_high = 0;
  const int nz = fv.temperature.nz();
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < fv.temperature.ny(); ++j)
      for (int i = 0; i < fv.temperature.nx(); ++i) {
        if (fv.temperature(i, j, k) <= 0) continue;
        if (k < nz / 3) {
          x_low += i;
          n_low += 1;
        } else if (k > nz / 2) {
          x_high += i;
          n_high += 1;
        }
      }
  ASSERT_GT(n_low, 0);
  ASSERT_GT(n_high, 0);
  EXPECT_GT(x_high / n_high, x_low / n_low);
}

TEST(Camera, NadirPixelRaysHitTheirFootprints) {
  Camera cam;
  cam.look_x = 500.0;
  cam.look_y = 500.0;
  cam.altitude = 3000.0;
  cam.npx = cam.npy = 64;
  cam.gsd = 4.0;
  // Center pixel ray points nearly straight down at the look-at point.
  const Ray center = cam.pixel_ray(31, 31);
  const double t = -center.oz / center.dz;
  EXPECT_NEAR(center.ox + t * center.dx, 500.0, 4.0);
  EXPECT_NEAR(center.oy + t * center.dy, 500.0, 4.0);
  // Corner pixel lands half a footprint away from the center.
  const Ray corner = cam.pixel_ray(0, 0);
  const double tc = -corner.oz / corner.dz;
  EXPECT_NEAR(corner.ox + tc * corner.dx, 500.0 - 31.5 * 4.0, 1e-9);
  EXPECT_THROW((void)cam.pixel_ray(-1, 0), std::out_of_range);
}

TEST(Render, ColdSceneIsAmbientBrightness) {
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  util::Array2D<double> ground_T(41, 41, 300.0);
  FlameVoxels no_flames;
  no_flames.dx = no_flames.dy = 6.0;
  no_flames.dz = 1.0;
  no_flames.temperature = util::Array3D<double>(41, 41, 1, 0.0);

  Camera cam;
  cam.look_x = cam.look_y = 120.0;
  cam.npx = cam.npy = 32;
  cam.gsd = 8.0;
  Renderer renderer;
  const RenderedScene scene = renderer.render(cam, g, ground_T, no_flames);
  // Brightness below ambient (emissivity + transmittance < 1), positive.
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) {
      EXPECT_GT(scene.brightness(i, j), 250.0);
      EXPECT_LT(scene.brightness(i, j), 300.0);
    }
}

TEST(Render, FireSceneShowsAllThreeRadianceTerms) {
  fire::FireModel model = burning_model();
  util::Array2D<double> wu(41, 41, 3.0), wv(41, 41, 0.0);
  const FlameVoxels fv = build_flame_voxels(model, wu, wv);
  GroundThermalModel thermal;
  util::Array2D<double> ground_T;
  thermal.temperature_map(model.state().tig, model.state().time, ground_T);

  Camera cam;
  cam.look_x = cam.look_y = 120.0;
  cam.altitude = 3000.0;
  cam.npx = cam.npy = 64;
  cam.gsd = 4.0;
  Renderer renderer;
  const RenderedScene scene = renderer.render(cam, model.grid(), ground_T, fv);

  // Fire pixels are far brighter than background.
  const double maxB = util::max_value(scene.brightness);
  EXPECT_GT(maxB, 600.0);
  // Reflection term: irradiance map positive near the fire.
  const util::Array2D<double> irr =
      renderer.flame_irradiance(model.grid(), fv);
  EXPECT_GT(util::max_value(irr), 0.0);
  // And zero far away (beyond the cutoff).
  EXPECT_DOUBLE_EQ(irr(0, 0), 0.0);
}

TEST(Fre, GrassfireFrpInPublishedRange) {
  // Wooster et al. 2003 report wildfire FRP from ~1 MW (small fires) to
  // ~1 GW (large events). A ~0.5 ha burning grass patch should land well
  // inside that bracket with both estimators.
  fire::FireModel model = burning_model();
  util::Array2D<double> wu(41, 41, 3.0), wv(41, 41, 0.0);
  const FlameVoxels fv = build_flame_voxels(model, wu, wv);
  GroundThermalModel thermal;
  util::Array2D<double> ground_T;
  thermal.temperature_map(model.state().tig, model.state().time, ground_T);

  Camera cam;
  cam.look_x = cam.look_y = 120.0;
  cam.npx = cam.npy = 96;
  cam.gsd = 3.0;
  Renderer renderer;
  const RenderedScene scene = renderer.render(cam, model.grid(), ground_T, fv);

  FreParams fp;
  fp.pixel_area = cam.pixel_area();
  const double frp_sb = frp_stefan_boltzmann(scene.brightness, fp);
  const double frp_mir = frp_mir_radiance(scene.radiance, scene.brightness, fp);
  EXPECT_GT(fire_pixel_count(scene.brightness, fp), 10);
  EXPECT_GT(frp_sb, 1e6);    // > 1 MW
  EXPECT_LT(frp_sb, 1e9);    // < 1 GW
  EXPECT_GT(frp_mir, 1e5);
  EXPECT_LT(frp_mir, 1e9);
  // The two estimators agree within an order of magnitude.
  EXPECT_LT(std::abs(std::log10(frp_sb / frp_mir)), 1.0);
}

TEST(Fre, ColdImageHasZeroFrp) {
  util::Array2D<double> cold(16, 16, 300.0);
  EXPECT_DOUBLE_EQ(frp_stefan_boltzmann(cold), 0.0);
  EXPECT_EQ(fire_pixel_count(cold), 0);
}
