// Core module tests: state packing, position diagnostics, the twin-
// experiment data pool, and the real-time driver bookkeeping.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/cycle.h"
#include "core/data_pool.h"
#include "core/model_state.h"
#include "core/realtime.h"
#include "obs/obs_function.h"

using namespace wfire;
using namespace wfire::core;

namespace {

grid::Grid2D small_grid() { return grid::Grid2D(41, 41, 6.0, 6.0); }

std::unique_ptr<fire::FireModel> ignited_model(double cx, double cy) {
  const grid::Grid2D g = small_grid();
  auto m = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  m->ignite({levelset::Ignition{levelset::CircleIgnition{cx, cy, 20.0, 0.0}}});
  return m;
}

}  // namespace

TEST(ModelState, PackStateCapsIgnitionTime) {
  fire::FireState s;
  s.psi = util::Array2D<double>(4, 3, 2.5);
  s.tig = util::Array2D<double>(4, 3, fire::kNotIgnited);
  s.psi(1, 1) = -3.0;
  s.tig(1, 1) = 17.0;
  s.tig(2, 1) = 2.0 * kTigCap;
  s.tig(3, 1) = std::nan("");
  s.time = 99.0;

  const la::Vector v = pack_state(s);
  ASSERT_EQ(v.size(), 24u);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
  EXPECT_DOUBLE_EQ(v[5], -3.0);
  EXPECT_DOUBLE_EQ(v[12 + 5], 17.0);
  // +inf, a time past the cap and NaN all map to the finite cap.
  EXPECT_DOUBLE_EQ(v[12], kTigCap);
  EXPECT_DOUBLE_EQ(v[12 + 6], kTigCap);
  EXPECT_DOUBLE_EQ(v[12 + 7], kTigCap);
  EXPECT_DOUBLE_EQ(capped_tig(kTigCap), kTigCap);
  EXPECT_DOUBLE_EQ(capped_tig(-HUGE_VAL), kTigCap);
}

TEST(ModelState, CentroidOfCircularFire) {
  const grid::Grid2D g = small_grid();
  auto m = ignited_model(120.0, 90.0);
  double cx, cy;
  ASSERT_TRUE(burning_centroid(g, m->state().psi, cx, cy));
  EXPECT_NEAR(cx, 120.0, 3.0);
  EXPECT_NEAR(cy, 90.0, 3.0);

  util::Array2D<double> cold(g.nx, g.ny, 1.0);
  EXPECT_FALSE(burning_centroid(g, cold, cx, cy));
}

TEST(ModelState, CentroidDistanceMeasuresDisplacement) {
  const grid::Grid2D g = small_grid();
  auto a = ignited_model(90.0, 120.0);
  auto b = ignited_model(150.0, 120.0);
  const double d = centroid_distance(g, a->state().psi, b->state().psi);
  EXPECT_NEAR(d, 60.0, 5.0);
  util::Array2D<double> cold(g.nx, g.ny, 1.0);
  EXPECT_TRUE(std::isinf(centroid_distance(g, a->state().psi, cold)));
}

TEST(ModelState, SymmetricDifferenceOfIdenticalIsZero) {
  const grid::Grid2D g = small_grid();
  auto a = ignited_model(120.0, 120.0);
  EXPECT_DOUBLE_EQ(
      symmetric_difference_area(g, a->state().psi, a->state().psi), 0.0);
  auto b = ignited_model(150.0, 120.0);
  EXPECT_GT(symmetric_difference_area(g, a->state().psi, b->state().psi),
            1000.0);
}

TEST(DataPool, ObservationsTrackTruthAndAddNoise) {
  DataPoolOptions opt;
  opt.noise_std = 100.0;
  opt.wind_u = 2.0;
  DataPool pool(ignited_model(120.0, 120.0), opt, util::Rng(3));
  const ObservationImage obs = pool.observe_at(30.0);
  EXPECT_NEAR(obs.time, 30.0, 1e-6);
  EXPECT_NEAR(pool.truth().state().time, 30.0, 1e-6);
  EXPECT_DOUBLE_EQ(obs.noise_std, 100.0);

  // The noisy image differs from the clean one but correlates with it.
  const util::Array2D<double> clean = wfire::obs::heat_flux_image(
      pool.truth().fuel(), pool.truth().state().tig,
      pool.truth().state().time);
  double diff = 0, signal = 0;
  for (int j = 0; j < clean.ny(); ++j)
    for (int i = 0; i < clean.nx(); ++i) {
      diff += std::abs(obs.image(i, j) - clean(i, j));
      signal += std::abs(clean(i, j));
    }
  EXPECT_GT(diff, 0.0);
  EXPECT_GT(signal, 0.0);
}

TEST(DataPool, SequentialObservationsAdvanceMonotonically) {
  DataPool pool(ignited_model(120.0, 120.0), {}, util::Rng(4));
  pool.observe_at(10.0);
  const ObservationImage o2 = pool.observe_at(20.0);
  EXPECT_NEAR(o2.time, 20.0, 1e-6);
  EXPECT_THROW(DataPool(nullptr, {}, util::Rng(0)), std::invalid_argument);
}

TEST(Cycle, InitializeCreatesPerturbedMembers) {
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 6;
  opt.ignition_jitter = 30.0;
  opt.threads = 2;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 11);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  ASSERT_EQ(cycle.members(), 6);
  // Members start at distinct positions (jitter) but all have fire.
  double cx0, cy0, cx1, cy1;
  ASSERT_TRUE(burning_centroid(g, cycle.member(0).state().psi, cx0, cy0));
  ASSERT_TRUE(burning_centroid(g, cycle.member(1).state().psi, cx1, cy1));
  EXPECT_GT(std::hypot(cx1 - cx0, cy1 - cy0), 1.0);
  EXPECT_GT(cycle.state_spread(), 0.0);
}

TEST(Cycle, CallsBeforeInitializeThrow) {
  // An empty ensemble has nothing to advance, score or spread: each call
  // throws instead of crashing, returning NaN or counting a fallback.
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 16);
  const util::Array2D<double> psi(g.nx, g.ny, 1.0);
  EXPECT_THROW(cycle.advance_to(10.0), std::runtime_error);
  EXPECT_EQ(cycle.fallback_count(), 0);
  EXPECT_THROW((void)cycle.mean_shape_error(psi), std::runtime_error);
  EXPECT_THROW((void)cycle.state_spread(), std::runtime_error);
  EXPECT_THROW(cycle.assimilate(ObservationImage{}), std::runtime_error);
}

TEST(Cycle, AdvanceToMovesAllMembers) {
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 12);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  cycle.advance_to(15.0);
  for (int k = 0; k < cycle.members(); ++k)
    EXPECT_NEAR(cycle.member(k).state().time, 15.0, 1e-9);
  // Phase timings recorded (initialize first, then the advance).
  ASSERT_FALSE(cycle.runner().timings().empty());
  bool has_advance = false;
  for (const auto& t : cycle.runner().timings())
    if (t.name == "advance") has_advance = true;
  EXPECT_TRUE(has_advance);
}

TEST(Cycle, AssimilationReducesPositionError) {
  // Small end-to-end twin experiment: ensemble ignited 90 m off the truth;
  // one morphing analysis must cut the mean position error.
  const grid::Grid2D g = small_grid();
  DataPoolOptions dopt;
  dopt.noise_std = 1000.0;
  DataPool pool(ignited_model(150.0, 120.0), dopt, util::Rng(5));

  CycleOptions opt;
  opt.members = 8;
  opt.ignition_jitter = 12.0;
  opt.threads = 2;
  opt.filter = FilterKind::kMorphingEnKF;
  opt.morph.sigma_r = 50.0;
  opt.morph.sigma_T = 0.5;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 13);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{60.0, 120.0, 20.0, 0.0}}});  // 90 m west

  const ObservationImage obs = pool.observe_at(20.0);
  cycle.advance_to(20.0);
  const double err_before =
      cycle.mean_position_error(pool.truth().state().psi);
  cycle.assimilate(obs);
  const double err_after = cycle.mean_position_error(pool.truth().state().psi);
  EXPECT_LT(err_after, 0.8 * err_before);
}

TEST(Cycle, StandardFilterRejectsImagesOfAnotherShape) {
  // A 41x41 cycle given a 40x40 or a 42x42 image must throw rather than
  // write member fields past the extended-state columns or analyse stale
  // rows of the arena.
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  opt.filter = FilterKind::kStandardEnKF;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 15);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  for (const int n : {40, 42}) {
    ObservationImage obs;
    obs.image = util::Array2D<double>(n, n, 0.0);
    EXPECT_THROW(cycle.assimilate(obs), std::invalid_argument)
        << n << "x" << n << " image";
  }
}

// The paper's stages exchange the ensemble through disk files; the cycle
// keeps it in memory. The two agree bitwise because every member state
// comes back unchanged from a statefile round trip, after the advance and
// after the analysis.
TEST(Cycle, FileExchangeMatchesInMemory) {
  const grid::Grid2D g = small_grid();
  DataPool pool(ignited_model(130.0, 120.0), {}, util::Rng(4));
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  opt.ignition_jitter = 20.0;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 14);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wfire_cycle_test";
  std::filesystem::create_directories(dir);
  const auto expect_round_trip = [&](const char* stage) {
    for (int k = 0; k < cycle.members(); ++k) {
      const fire::FireState& s = cycle.member(k).state();
      const std::string path =
          (dir / ("member_" + std::to_string(k) + ".wfst")).string();
      obs::write_fire_state(path, s);
      const fire::FireState r = obs::read_fire_state(path, g.nx, g.ny);
      EXPECT_EQ(r.time, s.time) << stage << " member " << k;
      EXPECT_TRUE(r.psi == s.psi) << stage << " member " << k;
      EXPECT_TRUE(r.tig == s.tig) << stage << " member " << k;
    }
  };
  cycle.advance_to(10.0);
  expect_round_trip("advance");
  cycle.assimilate(pool.observe_at(10.0));
  expect_round_trip("analysis");
  std::filesystem::remove_all(dir);
}

// Bad inputs throw before initialize() touches the ensemble: a NaN radius
// would build NaN members and a NaN time members that never light, both
// caught only later by the analysis's finite check. An ensemble built
// earlier survives a rejected call unchanged.
TEST(Cycle, InitializeRejectsInvalidInputs) {
  const grid::Grid2D g = small_grid();
  const auto circle = [](double cx, double r, double time) {
    return levelset::Ignition{levelset::CircleIgnition{cx, 120.0, r, time}};
  };
  CycleOptions opt;
  opt.members = 3;
  opt.threads = 2;
  opt.ignition_jitter = 20.0;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 18);
  cycle.initialize({circle(120.0, 20.0, 0.0)});
  cycle.advance_to(5.0);
  std::vector<fire::FireState> before;
  for (int k = 0; k < cycle.members(); ++k)
    before.push_back(cycle.member(k).state());

  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const levelset::Ignition& bad :
       {circle(120.0, nan, 0.0), circle(120.0, 20.0, nan),
        circle(inf, 20.0, 0.0), circle(120.0, 0.0, 0.0),
        levelset::Ignition{levelset::LineIgnition{60.0, 120.0, 180.0, 120.0,
                                                  -1.0, 0.0}}}) {
    EXPECT_THROW(cycle.initialize({circle(100.0, 20.0, 0.0), bad}),
                 std::invalid_argument);
  }
  for (const double jitter : {nan, inf, -1.0}) {
    CycleOptions bad_opt = opt;
    bad_opt.ignition_jitter = jitter;
    AssimilationCycle bad_cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                                fire::terrain_flat(g), {}, bad_opt, 18);
    EXPECT_THROW(bad_cycle.initialize({circle(120.0, 20.0, 0.0)}),
                 std::invalid_argument)
        << "ignition_jitter " << jitter;
    EXPECT_EQ(bad_cycle.members(), 0);
  }
  // Shapes that do not match the grid are rejected once, at construction.
  EXPECT_THROW(AssimilationCycle(g, fire::uniform_fuel(g.nx - 1, g.ny, 0),
                                 fire::terrain_flat(g), {}, opt, 18),
               std::invalid_argument);
  EXPECT_THROW(AssimilationCycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                                 util::Array2D<double>(g.nx, g.ny + 1, 0.0),
                                 {}, opt, 18),
               std::invalid_argument);

  ASSERT_EQ(cycle.members(), 3);
  for (int k = 0; k < cycle.members(); ++k) {
    const fire::FireState& s = cycle.member(k).state();
    EXPECT_EQ(s.time, before[k].time) << "member " << k;
    EXPECT_TRUE(s.psi == before[k].psi) << "member " << k;
    EXPECT_TRUE(s.tig == before[k].tig) << "member " << k;
  }
}

TEST(RealTime, DriverRecordsCyclesAndDeadlines) {
  const grid::Grid2D g = small_grid();
  DataPool pool(ignited_model(120.0, 120.0), {}, util::Rng(6));
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  opt.morph.sigma_r = 50.0;
  // Keep the 4-member ensemble clustered: with the default 60 m jitter a
  // member can land outside this 240 m domain and the analysis consensus
  // collapses — the test exercises driver bookkeeping, not filter skill.
  opt.ignition_jitter = 20.0;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 15);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{100.0, 120.0, 20.0, 0.0}}});

  RealTimeOptions ropt;
  ropt.cycle_interval = 10.0;
  ropt.cycles = 3;
  ropt.speedup = 1e6;  // deadlines intentionally impossible
  ropt.pace = false;
  RealTimeDriver driver(cycle, pool, ropt);
  const std::vector<CycleRecord> records = driver.run();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_NEAR(records.back().sim_time, 30.0, 1e-9);
  for (const auto& r : records) {
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_FALSE(r.met_deadline);  // 10 us budget is not attainable
    EXPECT_TRUE(std::isfinite(r.position_error));
  }
}

// The runner's phase log is per cycle: a long-lived driver must not grow it.
TEST(RealTime, PhaseLogHoldsOnlyTheLastCycle) {
  const grid::Grid2D g = small_grid();
  DataPool pool(ignited_model(120.0, 120.0), {}, util::Rng(8));
  CycleOptions opt;
  opt.members = 3;
  opt.threads = 2;
  opt.ignition_jitter = 20.0;
  opt.filter = FilterKind::kStandardEnKF;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 17);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{110.0, 120.0, 20.0, 0.0}}});

  RealTimeOptions ropt;
  ropt.cycle_interval = 5.0;
  ropt.cycles = 5;
  ropt.pace = false;
  RealTimeDriver driver(cycle, pool, ropt);
  ASSERT_EQ(driver.run().size(), 5u);
  std::vector<std::string> names;
  for (const auto& p : cycle.runner().timings()) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{"advance", "obs_function", "enkf",
                                             "state_update"}));
}

namespace {

// A deliberately slow data source: observation production that must never be
// charged against the assimilation deadline. Delegates to a DataPool so the
// driver still gets real images and a truth to score against.
class SlowSource : public ObservationSource {
 public:
  SlowSource(DataPool& inner, double delay_s)
      : inner_(inner), delay_s_(delay_s) {}
  ObservationImage observe_at(double time) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_s_));
    return inner_.observe_at(time);
  }
  [[nodiscard]] const util::Array2D<double>* truth_psi() const override {
    return inner_.truth_psi();
  }

 private:
  DataPool& inner_;
  double delay_s_;
};

}  // namespace

// Pins the accounting contract: only advance_to + assimilate count toward
// wall_seconds/met_deadline; the data source's time lands in obs_seconds.
// Before the fix, the stopwatch started ahead of observe_at, so a slow feed
// (here: 0.4 s of synthetic delay per cycle) blew every deadline even when
// the computation itself was far faster than real time.
TEST(RealTime, ObservationGenerationNotChargedToDeadline) {
  const grid::Grid2D g = small_grid();
  DataPool pool(ignited_model(120.0, 120.0), {}, util::Rng(7));
  SlowSource slow(pool, 0.4);
  CycleOptions opt;
  opt.members = 2;
  opt.threads = 1;
  opt.ignition_jitter = 20.0;
  // The cheap pixelwise filter: the cycle must finish far inside 0.4 s so
  // the wall/obs comparison below is unambiguous.
  opt.filter = FilterKind::kStandardEnKF;
  AssimilationCycle cycle(g, fire::uniform_fuel(g.nx, g.ny, 0),
                          fire::terrain_flat(g), {}, opt, 16);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{110.0, 120.0, 20.0, 0.0}}});

  RealTimeOptions ropt;
  ropt.cycle_interval = 5.0;
  ropt.cycles = 2;
  ropt.speedup = 1.0;  // 5 s budget per cycle: generous for this config...
  ropt.pace = false;
  RealTimeDriver driver(cycle, slow, ropt);
  const std::vector<CycleRecord> records = driver.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    // ...so the deadline only holds if the 0.4 s source delay stayed off the
    // measured path.
    EXPECT_GE(r.obs_seconds, 0.4);
    EXPECT_LT(r.wall_seconds, r.obs_seconds);
    EXPECT_TRUE(r.met_deadline);
    EXPECT_TRUE(std::isfinite(r.position_error));
  }
}
