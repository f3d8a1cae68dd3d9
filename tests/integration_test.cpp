// Cross-module integration tests: the full coupled model + scene + filter
// stack exercised end to end on small configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/cycle.h"
#include "core/realtime.h"
#include "coupling/coupled.h"
#include "obs/obs_function.h"
#include "obs/weather_station.h"
#include "scene/fre.h"
#include "scene/render.h"

using namespace wfire;

TEST(Integration, CoupledFireScenePipeline) {
  // Coupled run -> ground thermal map -> flame voxels -> rendered IR image
  // -> FRP, all from one model state: the paper's full forward chain.
  const grid::Grid3D g(8, 8, 6, 60.0, 60.0, 60.0);
  atmos::AmbientProfile amb;
  amb.wind_u = 3.0;
  coupling::CoupledOptions copt;
  copt.refine = 10;
  coupling::CoupledModel model(g, amb, fire::kFuelShortGrass, copt);
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{240.0, 240.0, 25.0, 0.0}}});
  for (int s = 0; s < 120; ++s) model.step(0.5);

  const fire::FireModel& fm = model.fire_model();
  scene::GroundThermalModel thermal;
  util::Array2D<double> ground_T;
  thermal.temperature_map(fm.state().tig, fm.state().time, ground_T);
  EXPECT_GT(util::max_value(ground_T), 600.0);  // hot ground behind front

  const scene::FlameVoxels fv = scene::build_flame_voxels(
      fm, model.fire_wind_u(), model.fire_wind_v());
  EXPECT_GT(fv.max_flame_length, 0.2);

  scene::Camera cam;
  cam.look_x = cam.look_y = 270.0;
  cam.npx = cam.npy = 48;
  cam.gsd = 10.0;
  scene::Renderer renderer;
  const scene::RenderedScene sc = renderer.render(cam, fm.grid(), ground_T, fv);

  scene::FreParams fp;
  fp.pixel_area = cam.pixel_area();
  const double frp = scene::frp_stefan_boltzmann(sc.brightness, fp);
  EXPECT_GT(frp, 1e5);
  EXPECT_LT(frp, 1e10);
}

TEST(Integration, MorphingBeatsStandardEnKFOnDisplacedFire) {
  // The Fig. 4 comparison at test scale: same twin experiment, same seeds,
  // the morphing EnKF must end with a smaller position error than the
  // standard EnKF.
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  const auto run = [&](core::FilterKind kind) {
    core::DataPoolOptions dopt;
    dopt.noise_std = 1500.0;
    core::DataPool pool(
        [&] {
          auto m = std::make_unique<fire::FireModel>(
              g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
              fire::terrain_flat(g));
          m->ignite({levelset::Ignition{
              levelset::CircleIgnition{150.0, 120.0, 20.0, 0.0}}});
          return m;
        }(),
        dopt, util::Rng(7));

    core::CycleOptions opt;
    opt.members = 8;
    opt.threads = 2;
    opt.filter = kind;
    opt.ignition_jitter = 10.0;
    opt.morph.sigma_r = 50.0;
    opt.morph.sigma_T = 0.5;
    opt.standard_sigma_obs = 2000.0;
    core::AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                                  fire::terrain_flat(g), {}, opt, 8);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{80.0, 120.0, 20.0, 0.0}}});  // 70 m off
    const core::ObservationImage obs = pool.observe_at(15.0);
    cycle.advance_to(15.0);
    cycle.assimilate(obs);
    return cycle.mean_position_error(pool.truth().state().psi);
  };

  const double err_morph = run(core::FilterKind::kMorphingEnKF);
  const double err_std = run(core::FilterKind::kStandardEnKF);
  EXPECT_LT(err_morph, err_std);
}

TEST(Integration, MultiCycleAssimilationConvergesToTruth) {
  // Several observation cycles shrink both position error and spread —
  // the filter is actually tracking, not just nudging once.
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  core::DataPoolOptions dopt;
  dopt.noise_std = 1000.0;
  dopt.wind_u = 1.5;
  core::DataPool pool(
      [&] {
        auto m = std::make_unique<fire::FireModel>(
            g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
            fire::terrain_flat(g));
        m->ignite({levelset::Ignition{
            levelset::CircleIgnition{130.0, 130.0, 18.0, 0.0}}});
        return m;
      }(),
      dopt, util::Rng(9));

  core::CycleOptions opt;
  opt.members = 8;
  opt.threads = 2;
  opt.wind_u = 1.5;
  opt.ignition_jitter = 15.0;
  opt.morph.sigma_r = 50.0;
  opt.morph.sigma_T = 0.5;
  core::AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                                fire::terrain_flat(g), {}, opt, 10);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{90.0, 110.0, 18.0, 0.0}}});

  double pre_err = -1, last_err = -1;
  for (int c = 1; c <= 3; ++c) {
    const double t = 10.0 * c;
    const core::ObservationImage obs = pool.observe_at(t);
    cycle.advance_to(t);
    if (pre_err < 0)
      pre_err = cycle.mean_position_error(pool.truth().state().psi);
    cycle.assimilate(obs);
    last_err = cycle.mean_position_error(pool.truth().state().psi);
  }
  EXPECT_LT(last_err, 0.8 * pre_err);
  EXPECT_LT(last_err, 30.0);  // within ~5 fire cells of the truth
}

TEST(Integration, StateFilePipelineSurvivesAssimilation) {
  // The paper's separate-executable pipeline around a full advance +
  // assimilate sequence: each analysed member goes to a state file, and the
  // observation function run from that file equals the in-memory one.
  const grid::Grid2D g(31, 31, 6.0, 6.0);
  core::DataPool pool(
      [&] {
        auto m = std::make_unique<fire::FireModel>(
            g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
            fire::terrain_flat(g));
        m->ignite({levelset::Ignition{
            levelset::CircleIgnition{100.0, 90.0, 15.0, 0.0}}});
        return m;
      }(),
      {}, util::Rng(11));

  core::CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  opt.morph.sigma_r = 50.0;
  core::AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                                fire::terrain_flat(g), {}, opt, 12);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{80.0, 90.0, 15.0, 0.0}}});
  const core::ObservationImage obs = pool.observe_at(10.0);
  cycle.advance_to(10.0);
  EXPECT_NO_THROW(cycle.assimilate(obs));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wfire_integration_exchange";
  std::filesystem::create_directories(dir);
  for (int k = 0; k < cycle.members(); ++k) {
    const fire::FireModel& m = cycle.member(k);
    const std::string stem = (dir / ("member_" + std::to_string(k))).string();
    obs::write_fire_state(stem + ".wfst", m.state());
    const util::Array2D<double> from_file = obs::observation_function_file(
        stem + ".wfst", stem + "_synth.wfst", m.fuel(), g.nx, g.ny);
    EXPECT_TRUE(from_file == obs::heat_flux_image(m.fuel(), m.state().tig,
                                                  m.state().time))
        << "member " << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(Integration, WeatherStationAgainstCoupledModel) {
  // Stations report against the coupled model's ground wind field — the
  // Sec. 3.1 data path wired to the real atmosphere.
  const grid::Grid3D g(8, 8, 6, 60.0, 60.0, 60.0);
  atmos::AmbientProfile amb;
  amb.wind_u = 4.0;
  coupling::CoupledModel model(g, amb, fire::kFuelShortGrass, {});
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{240.0, 240.0, 25.0, 0.0}}});
  for (int s = 0; s < 40; ++s) model.step(0.5);

  const fire::FireModel& fm = model.fire_model();
  scene::GroundThermalModel thermal;
  util::Array2D<double> ground_T;
  thermal.temperature_map(fm.state().tig, fm.state().time, ground_T);
  util::Array2D<double> humidity(fm.grid().nx, fm.grid().ny, 0.35);

  obs::WeatherStationOperator op(fm.grid());
  obs::StationReport rep;
  rep.x = 250.0;
  rep.y = 250.0;  // inside the burned area
  rep.temperature = 400.0;
  const obs::StationComparison cmp =
      op.compare(rep, ground_T, model.fire_wind_u(), model.fire_wind_v(),
                 humidity, fm.state().psi);
  EXPECT_TRUE(cmp.inside);
  EXPECT_TRUE(cmp.fireline_nearby);
  EXPECT_GT(cmp.model_temperature, 310.0);  // the model knows it is hot there
}
