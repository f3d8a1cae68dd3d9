// Scenario-server tests: admission control, concurrent-vs-solo bitwise
// reproducibility, crash-safe checkpoint kill/restore round trips, the
// zero-allocation steady-state serving path, and graceful shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include "alloc_counter.h"
#include "serve/scenario_server.h"

using namespace wfire;
using namespace wfire::serve;

namespace {

const char* kTmp = "/tmp/wfire_serve_test";

struct TmpDir {
  TmpDir() {
    std::filesystem::remove_all(kTmp);
    std::filesystem::create_directories(kTmp);
  }
  ~TmpDir() { std::filesystem::remove_all(kTmp); }
};

ScenarioSpec small_spec(std::uint64_t seed, double cx = 60.0,
                        double cy = 60.0) {
  ScenarioSpec spec;
  spec.nx = 21;
  spec.ny = 21;
  spec.dx = 6.0;
  spec.dy = 6.0;
  spec.dt = 0.5;
  spec.wind_u = 2.0;
  spec.wind_v = 0.5;
  spec.wind_jitter = 0.8;
  spec.seed = seed;
  spec.fire.reinit_interval = 8;  // several redistancing phases per test
  spec.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{cx, cy, 15.0, 0.0}}};
  return spec;
}

// Reference trajectory: the same spec served alone, inline, on a one-thread
// server. The reproducibility contract says everything else must match this
// bitwise.
fire::FireState solo_state(const ScenarioSpec& spec, double until) {
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;  // everything inline
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(spec);
  EXPECT_TRUE(server.request_advance(id, until));
  server.wait(id);
  return server.state(id);
}

}  // namespace

TEST(ScenarioServer, AdmissionRoutesSmallJobsInlineAndBigToPool) {
  ServerOptions opt;
  opt.threads = 2;
  // 21x21 nodes -> 441 cell-steps per step: 10 steps fit, 11 don't.
  opt.inline_cell_steps = 441 * 10;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(1));

  EXPECT_TRUE(server.request_advance(id, 5.0));  // 10 steps: inline
  server.wait(id);
  EXPECT_FALSE(server.request_advance(id, 30.0));  // 50 more steps: pooled
  server.wait(id);

  const ScenarioStatus st = server.status(id);
  EXPECT_EQ(st.inline_served, 1);
  EXPECT_EQ(st.pooled_served, 1);
  EXPECT_NEAR(st.sim_time, 30.0, 1e-9);
  EXPECT_EQ(st.steps, 60);
  EXPECT_FALSE(st.failed);
}

// The admission threshold comes from ServerOptions alone: no environment
// variable overrides an explicit value, such as the "everything inline"
// setting the sweep and the solo references pass.
TEST(ScenarioServer, ExplicitInlineThresholdIgnoresEnvironment) {
  ASSERT_EQ(setenv("WFIRE_SERVE_INLINE", "777", 1), 0);
  ServerOptions opt;
  opt.inline_cell_steps = 1L << 40;
  ScenarioServer server(opt);
  unsetenv("WFIRE_SERVE_INLINE");
  EXPECT_EQ(server.options().inline_cell_steps, 1L << 40);
}

TEST(ScenarioServer, ConcurrentScenariosBitwiseMatchSoloRuns) {
  constexpr int kScenarios = 6;
  ServerOptions opt;
  opt.threads = 4;
  opt.inline_cell_steps = 0;  // force every advance through the pool
  ScenarioServer server(opt);

  std::vector<ScenarioSpec> specs;
  std::vector<ScenarioId> ids;
  for (int k = 0; k < kScenarios; ++k) {
    specs.push_back(small_spec(100 + static_cast<std::uint64_t>(k),
                               45.0 + 6.0 * k, 60.0));
    ids.push_back(server.admit(specs.back()));
  }
  // Two advance chunks per scenario, queued while others run.
  for (const ScenarioId id : ids) server.request_advance(id, 8.0);
  for (const ScenarioId id : ids) server.request_advance(id, 16.0);
  server.wait_all();
  // Counters tally dispatched jobs, not requests: a follow-up request that
  // lands while its scenario is running drains into the in-flight job. With
  // the threshold at zero, every dispatch went through the pool.
  EXPECT_GE(server.total_pooled(), kScenarios);
  EXPECT_EQ(server.total_inline(), 0);

  for (int k = 0; k < kScenarios; ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    const fire::FireState solo = solo_state(specs[static_cast<size_t>(k)], 16.0);
    const fire::FireState& got = server.state(ids[static_cast<size_t>(k)]);
    EXPECT_TRUE(got.psi == solo.psi);   // bitwise
    EXPECT_TRUE(got.tig == solo.tig);   // bitwise
    EXPECT_DOUBLE_EQ(got.time, solo.time);
    EXPECT_FALSE(server.status(ids[static_cast<size_t>(k)]).failed);
  }
}

TEST(ScenarioServer, GustStreamsDecorrelatedButReproducible) {
  ServerOptions opt;
  opt.threads = 2;
  ScenarioServer server(opt);
  const ScenarioId a = server.admit(small_spec(11));
  const ScenarioId b = server.admit(small_spec(22));  // different seed
  const ScenarioId c = server.admit(small_spec(11));  // same seed as a
  for (const ScenarioId id : {a, b, c}) server.request_advance(id, 12.0);
  server.wait_all();
  EXPECT_FALSE(server.state(a).psi == server.state(b).psi);  // decorrelated
  EXPECT_TRUE(server.state(a).psi == server.state(c).psi);   // reproducible
  EXPECT_TRUE(server.state(a).tig == server.state(c).tig);
}

TEST(ScenarioServer, CheckpointKillRestoreRoundTripIsBitwise) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;
  opt.checkpoint_dir = kTmp;
  ScenarioSpec spec = small_spec(42);
  // A delayed ignition still pending at checkpoint time: the queue must
  // survive the round trip and light at the same sim time.
  spec.ignitions.push_back(
      levelset::Ignition{levelset::CircleIgnition{90.0, 90.0, 10.0, 20.0}});

  const std::string frozen = std::string(kTmp) + "/frozen.wfst";
  fire::FireState at_kill;
  {
    ScenarioServer server(opt);
    const ScenarioId id = server.admit(spec);
    server.request_advance(id, 15.0);
    server.wait(id);
    server.checkpoint_now(id);
    // "Kill": freeze a copy of the checkpoint, then let this server die.
    std::filesystem::copy_file(server.checkpoint_path(id), frozen);
    server.request_advance(id, 30.0);  // uninterrupted reference continues
    server.wait(id);
    at_kill = server.state(id);
  }

  ScenarioServer server(opt);
  const ScenarioId rid = server.restore(frozen);
  ScenarioStatus st = server.status(rid);
  EXPECT_NEAR(st.sim_time, 15.0, 1e-12);
  EXPECT_EQ(st.steps, 30);
  server.request_advance(rid, 30.0);  // crosses the pending ignition at t=20
  server.wait(rid);
  const fire::FireState& resumed = server.state(rid);
  EXPECT_TRUE(resumed.psi == at_kill.psi);  // bitwise
  EXPECT_TRUE(resumed.tig == at_kill.tig);  // bitwise
  EXPECT_DOUBLE_EQ(resumed.time, at_kill.time);
  // The delayed ignition did light after the restore.
  EXPECT_GT(server.status(rid).burned_area, 0.0);
}

TEST(ScenarioServer, PeriodicCheckpointsFollowTheCadence) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;
  opt.checkpoint_dir = kTmp;
  opt.checkpoint_interval = 5.0;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(3));
  server.request_advance(id, 12.0);
  server.wait(id);
  EXPECT_EQ(server.status(id).checkpoints_written, 2);  // t = 5, 10
  const ScenarioId rid = server.restore(server.checkpoint_path(id));
  EXPECT_NEAR(server.status(rid).sim_time, 10.0, 1e-12);
}

TEST(ScenarioServer, StaleTempFromCrashIsSkippedAndReaped) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(4));
  server.request_advance(id, 2.0);
  server.wait(id);
  server.checkpoint_now(id);
  const std::string good = server.checkpoint_path(id);
  const std::string stale = good + ".tmp";
  {
    std::ofstream garbage(stale, std::ios::binary);
    garbage << "killed mid-checkpoint";
  }
  const std::vector<std::string> found = list_checkpoints(kTmp);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], good);
  EXPECT_FALSE(std::filesystem::exists(stale));  // reaped
  EXPECT_NO_THROW(server.restore(good));         // the published file is whole
}

TEST(ScenarioServer, TruncatedCheckpointFailsCleanly) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(5));
  server.request_advance(id, 2.0);
  server.wait(id);
  server.checkpoint_now(id);
  const std::string path = server.checkpoint_path(id);
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) * 3 / 5);
  EXPECT_THROW(server.restore(path), std::runtime_error);
}

TEST(ScenarioServer, IgniteRequestMatchesSpecIgnition) {
  // A second fire requested at runtime lands bitwise where the same shape
  // declared up front in the spec would: the request path introduces no
  // divergence as long as it's enqueued before its ignition time.
  const levelset::Ignition late{
      levelset::CircleIgnition{90.0, 40.0, 10.0, 10.0}};
  ScenarioSpec spec_with = small_spec(6);
  spec_with.ignitions.push_back(late);
  const fire::FireState want = solo_state(spec_with, 24.0);

  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(6));
  server.request_ignite(id, late);
  server.request_advance(id, 24.0);
  server.wait(id);
  EXPECT_TRUE(server.state(id).psi == want.psi);
  EXPECT_TRUE(server.state(id).tig == want.tig);
}

TEST(ScenarioServer, LoadManyConcurrentScenarios) {
  constexpr int kScenarios = 32;
  ServerOptions opt;
  opt.threads = 4;
  // 21x21, dt 0.5: a 4 s advance (8 steps) stays inline, the 16 s one pools.
  opt.inline_cell_steps = 441 * 10;
  ScenarioServer server(opt);
  std::vector<ScenarioId> ids;
  for (int k = 0; k < kScenarios; ++k)
    ids.push_back(server.admit(
        small_spec(static_cast<std::uint64_t>(1000 + k), 40.0 + k, 55.0)));
  for (const ScenarioId id : ids) {
    server.request_advance(id, 4.0);
    server.request_advance(id, 20.0);
  }
  server.wait_all();
  EXPECT_GT(server.total_inline(), 0);
  EXPECT_GT(server.total_pooled(), 0);
  EXPECT_EQ(server.total_inline() + server.total_pooled(), 2L * kScenarios);
  for (const ScenarioId id : ids) {
    const ScenarioStatus st = server.status(id);
    EXPECT_NEAR(st.sim_time, 20.0, 1e-9);
    EXPECT_EQ(st.steps, 40);
    EXPECT_FALSE(st.failed) << server.error(id);
    EXPECT_GT(st.burned_area, 0.0);
  }
}

TEST(ScenarioServer, SteadyStateServingAllocatesNothing) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;  // measure the inline serving path
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(7));
  // Warm-up: cross a redistancing boundary (reinit_interval = 8 steps) so
  // every lazily-shaped scratch buffer exists before we start counting.
  server.request_advance(id, 6.0);  // 12 steps
  server.wait(id);

  EXPECT_EQ(count_allocs([&] {
              server.request_advance(id, 12.0);  // 12 more steps, reinits
              server.wait(id);
            }),
            0)
      << "steady-state serving path touched the heap";
#endif
}

TEST(ScenarioServer, GracefulShutdownDrainsAndRefusesNewWork) {
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 2;
  opt.inline_cell_steps = 0;  // pooled, so work is in flight at shutdown
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  const ScenarioId a = server.admit(small_spec(8));
  const ScenarioId b = server.admit(small_spec(9));
  server.request_advance(a, 10.0);
  server.request_advance(b, 10.0);
  server.shutdown();
  EXPECT_NEAR(server.status(a).sim_time, 10.0, 1e-9);  // drained, not dropped
  EXPECT_NEAR(server.status(b).sim_time, 10.0, 1e-9);
  EXPECT_THROW(server.request_advance(a, 20.0), std::runtime_error);
  EXPECT_THROW(server.admit(small_spec(10)), std::runtime_error);
  // Shutdown left one final checkpoint per scenario.
  EXPECT_EQ(list_checkpoints(kTmp).size(), 2u);
}

TEST(ScenarioServer, RequestRingOverflowIsDiagnosed) {
  ServerOptions opt;
  opt.threads = 1;
  opt.request_capacity = 2;
  opt.inline_cell_steps = 0;
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(12));
  // Hold the lone worker busy so requests pile up in the ring.
  for (int tries = 0; tries < 64; ++tries) {
    try {
      server.request_advance(id, 1000.0 + tries);
    } catch (const std::runtime_error&) {
      server.wait(id);
      SUCCEED();
      return;
    }
  }
  FAIL() << "ring never reported overflow";
}

TEST(ScenarioServer, CompletionHookFiresOnEachRingDrain) {
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;  // inline: the hook runs on this thread
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(31));

  int fired = 0;
  double hook_time = -1.0;
  server.set_completion_hook(id, [&](ScenarioId hid,
                                     const fire::FireState& st) {
    EXPECT_EQ(hid, id);
    ++fired;
    hook_time = st.time;
  });

  server.request_advance(id, 5.0);
  server.wait(id);
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(hook_time, 5.0, 1e-9);  // post-advance state, pre-idle

  server.request_advance(id, 10.0);
  server.wait(id);
  EXPECT_EQ(fired, 2);
  EXPECT_NEAR(hook_time, 10.0, 1e-9);

  // Clearing the hook stops the callbacks.
  server.set_completion_hook(id, {});
  server.request_advance(id, 15.0);
  server.wait(id);
  EXPECT_EQ(fired, 2);
}

TEST(ScenarioServer, ThrowingHookFailsTheScenario) {
  ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 0;  // pooled: the failure path, like an advance
  ScenarioServer server(opt);
  const ScenarioId id = server.admit(small_spec(32));
  server.set_completion_hook(id, [](ScenarioId, const fire::FireState&) {
    throw std::runtime_error("reduction exploded");
  });
  server.request_advance(id, 5.0);
  server.wait(id);
  EXPECT_TRUE(server.status(id).failed);
  EXPECT_NE(server.error(id).find("reduction exploded"), std::string::npos);
}

TEST(ScenarioServer, FuelScalesPerturbTheTrajectory) {
  // burn_time_scale shrinks every category's mass-loss e-folding time, so
  // cells behind the front exhaust (fuel_frac <= min_fuel_frac) much sooner
  // and stop spreading fire — the trajectory, not just the fluxes, changes.
  ScenarioSpec fast = small_spec(33);
  fast.wind_jitter = 0;  // isolate the fuel effect from the gust stream
  ScenarioSpec slow = fast;
  fast.burn_time_scale = 0.05;

  const fire::FireState a = solo_state(fast, 30.0);
  const fire::FireState b = solo_state(slow, 30.0);
  EXPECT_FALSE(a.psi == b.psi);
}

TEST(ScenarioServer, AdmitRejectsNonFiniteOrNonPositiveSpecFields) {
  // At least one bad value per validated field; NaN and infinity must not
  // slip past comparisons that a plain `<= 0` check would let through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const ScenarioSpec good = small_spec(36);
  std::vector<std::pair<const char*, ScenarioSpec>> cases;
  const auto bad = [&](const char* field) -> ScenarioSpec& {
    cases.emplace_back(field, good);
    return cases.back().second;
  };
  bad("nx").nx = 0;
  bad("ny").ny = 1;
  bad("dx").dx = nan;
  bad("dy").dy = -6.0;
  bad("dt").dt = nan;
  bad("fuel_moisture_scale").fuel_moisture_scale = inf;
  bad("fuel_moisture_scale").fuel_moisture_scale = 0.0;
  bad("burn_time_scale").burn_time_scale = nan;
  bad("burn_time_scale").burn_time_scale = -2.0;
  bad("fuel_category").fuel_category = -1;
  bad("fuel_category").fuel_category =
      static_cast<int>(fire::fuel_catalog().size());
  bad("wind_u").wind_u = nan;
  bad("wind_v").wind_v = -inf;
  bad("wind_jitter").wind_jitter = -0.5;
  bad("realtime_speedup").realtime_speedup = nan;
  bad("realtime_speedup").realtime_speedup = -1.0;
  bad("fire.scheme").fire.scheme = static_cast<levelset::UpwindScheme>(7);
  bad("fire.reinit_interval").fire.reinit_interval = -1;
  bad("fire.min_fuel_frac").fire.min_fuel_frac = nan;
  bad("fire.min_fuel_frac").fire.min_fuel_frac = 1.0;
  bad("fire.min_fuel_frac").fire.min_fuel_frac = -0.01;
  // Ignitions: every parameter finite, every size (r, w) > 0.
  using levelset::CircleIgnition;
  using levelset::LineIgnition;
  bad("circle cx").ignitions = {CircleIgnition{nan, 60.0, 15.0, 0.0}};
  bad("circle cy").ignitions = {CircleIgnition{60.0, -inf, 15.0, 0.0}};
  bad("circle r").ignitions = {CircleIgnition{60.0, 60.0, nan, 0.0}};
  bad("circle r").ignitions = {CircleIgnition{60.0, 60.0, inf, 0.0}};
  bad("circle r").ignitions = {CircleIgnition{60.0, 60.0, 0.0, 0.0}};
  bad("circle r").ignitions = {CircleIgnition{60.0, 60.0, -5.0, 0.0}};
  bad("circle time").ignitions = {CircleIgnition{60.0, 60.0, 15.0, nan}};
  bad("circle time")
      .ignitions.push_back(CircleIgnition{90.0, 90.0, 10.0, inf});
  bad("line x1").ignitions = {LineIgnition{nan, 30.0, 90.0, 60.0, 3.0, 0.0}};
  bad("line y2").ignitions = {LineIgnition{30.0, 30.0, 90.0, inf, 3.0, 0.0}};
  bad("line w").ignitions = {LineIgnition{30.0, 30.0, 90.0, 60.0, 0.0, 0.0}};
  bad("line w").ignitions = {LineIgnition{30.0, 30.0, 90.0, 60.0, nan, 0.0}};
  bad("line w").ignitions = {LineIgnition{30.0, 30.0, 90.0, 60.0, -1.0, 0.0}};
  bad("line time").ignitions = {
      LineIgnition{30.0, 30.0, 90.0, 60.0, 3.0, -inf}};
  ScenarioServer server;
  for (const auto& [field, spec] : cases)
    EXPECT_THROW(server.admit(spec), std::invalid_argument) << field;
  // Nothing was admitted, and a valid spec still is.
  EXPECT_EQ(server.admit(good), 0);
}

TEST(ScenarioServer, CorruptCheckpointMetaFailsCleanly) {
  // Every meta slot of a golden checkpoint rewritten to NaN, +-infinity and
  // slot-specific out-of-range values (huge, negative, fractional where an
  // integer is stored, unknown enum values): restore must throw every time
  // and never admit a scenario with the wrong numerics.
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  ScenarioSpec spec = small_spec(37);
  spec.ignitions.push_back(
      levelset::Ignition{levelset::CircleIgnition{90.0, 90.0, 10.0, 20.0}});
  const ScenarioId id = server.admit(spec);
  server.request_advance(id, 3.0);
  server.wait(id);
  server.checkpoint_now(id);
  const obs::Sections golden = obs::StateFile::read(server.checkpoint_path(id));
  const std::size_t meta_count = golden.at("meta").size();
  ASSERT_EQ(meta_count, 22u);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = 1e300;
  // Slot layout: see ScenarioServer::write_checkpoint_locked.
  const std::map<std::size_t, std::vector<double>> out_of_range = {
      {0, {1.0, 3.0}},                        // version
      {1, {1.0, 20.5, huge, -huge}},          // nx
      {2, {0.0, -1.0, huge}},                 // ny
      {3, {0.0, -6.0}},                       // dx
      {4, {-1.0}},                            // dy
      {5, {0.0, -0.5}},                       // dt
      {6, {-1.0, 13.0, 2.5, huge}},           // fuel_category
      {9, {-0.5}},                            // wind_jitter
      {10, {-1.0, 4294967296.0, 0.5}},        // seed, low half
      {11, {-1.0, huge}},                     // seed, high half
      {12, {-1.0}},                           // realtime_speedup
      {13, {-1.0, -huge}},                    // sim time
      {14, {-1.0, 0.5, huge}},                // step counter
      {15, {-1.0, 8.0, 1.5, huge}},           // redistancing phase
      {16, {-1.0, 2.5, huge}},                // fire.reinit_interval
      {17, {-1.0, 0.5, 2.0}},                 // fire.use_heun
      {18, {1.0, -0.01, huge}},               // fire.min_fuel_frac
      {19, {-1.0, 3.0, 7.0, huge}},           // fire.scheme
      {20, {0.0, -1.0}},                      // fuel_moisture_scale
      {21, {0.0, -2.0}},                      // burn_time_scale
  };
  const std::string mutant = std::string(kTmp) + "/mutant.wfst";
  const auto expect_rejected = [&](const obs::Sections& sections,
                                   const std::string& what) {
    obs::StateFile::write(mutant, sections);
    EXPECT_THROW(server.restore(mutant), std::exception) << what;
  };
  for (std::size_t slot = 0; slot < meta_count; ++slot) {
    std::vector<double> values = {nan, inf, -inf};
    if (const auto it = out_of_range.find(slot); it != out_of_range.end())
      values.insert(values.end(), it->second.begin(), it->second.end());
    for (const double v : values) {
      obs::Sections bad = golden;
      bad.at("meta")[slot] = v;
      expect_rejected(
          bad, (testing::Message() << "meta slot " << slot << " = " << v)
                   .GetString());
    }
  }
  // The pending-ignition section: an unknown shape type, a torn record.
  ASSERT_EQ(golden.at("pending").size(), 7u);
  obs::Sections bad_type = golden;
  bad_type.at("pending")[0] = 2.0;
  expect_rejected(bad_type, "pending shape type");
  obs::Sections torn = golden;
  torn.at("pending").pop_back();
  expect_rejected(torn, "torn pending record");
  // Appended pending records the model cannot run: a NaN radius, a time
  // that never arrives.
  const std::vector<double> record = golden.at("pending");
  const auto append_pending = [&](std::size_t param, double v) {
    obs::Sections bad = golden;
    std::vector<double>& pending = bad.at("pending");
    pending.insert(pending.end(), record.begin(), record.end());
    pending[record.size() + param] = v;
    return bad;
  };
  expect_rejected(append_pending(3, nan), "pending NaN radius");
  expect_rejected(append_pending(4, inf), "pending infinite time");
  // A meta section one slot longer than the v2 layout.
  obs::Sections appended = golden;
  appended.at("meta").push_back(0.0);
  expect_rejected(appended, "appended meta slot");

  // Only the original scenario exists; the golden file itself restores.
  EXPECT_EQ(server.scenarios(), 1);
  EXPECT_NO_THROW(server.restore(server.checkpoint_path(id)));
}

TEST(ScenarioServer, FuelScalesRoundTripThroughCheckpoints) {
  TmpDir tmp;
  ScenarioSpec spec = small_spec(35);
  spec.fuel_moisture_scale = 1.3;
  spec.burn_time_scale = 0.6;

  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  std::string path;
  {
    ScenarioServer server(opt);
    const ScenarioId id = server.admit(spec);
    server.request_advance(id, 15.0);
    server.wait(id);
    server.checkpoint_now(id);
    path = server.checkpoint_path(id);
  }

  // Resume from the checkpoint and continue; a second server runs the same
  // spec uninterrupted. If the scales were dropped from the checkpoint
  // metadata, the restored fuel catalog would differ and the trajectories
  // would diverge.
  ScenarioServer resumed(opt);
  const ScenarioId rid = resumed.restore(path);
  resumed.request_advance(rid, 30.0);
  resumed.wait(rid);

  const fire::FireState ref = solo_state(spec, 30.0);
  EXPECT_TRUE(resumed.state(rid).psi == ref.psi);
  EXPECT_TRUE(resumed.state(rid).tig == ref.tig);
}

TEST(ScenarioServer, RequestIgniteRejectsInvalidShapes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ScenarioServer server;
  const ScenarioId id = server.admit(small_spec(38));
  const std::vector<levelset::Ignition> bad = {
      levelset::CircleIgnition{nan, 60.0, 10.0, 5.0},
      levelset::CircleIgnition{60.0, 60.0, inf, 5.0},
      levelset::CircleIgnition{60.0, 60.0, 0.0, 5.0},
      levelset::CircleIgnition{60.0, 60.0, 10.0, nan},
      levelset::LineIgnition{30.0, 30.0, 90.0, 60.0, 0.0, 5.0},
      levelset::LineIgnition{30.0, 30.0, inf, 60.0, 3.0, 5.0},
  };
  for (std::size_t k = 0; k < bad.size(); ++k)
    EXPECT_THROW(server.request_ignite(id, bad[k]), std::invalid_argument)
        << "shape " << k;
  // A valid shape is still accepted, and lights at its time.
  server.request_ignite(id, levelset::CircleIgnition{90.0, 90.0, 10.0, 1.0});
  server.request_advance(id, 2.0);
  server.wait(id);
  EXPECT_LT(server.state(id).psi(15, 15), 0.0);
}

TEST(ScenarioServer, CheckpointMetaKeepsTheV2SlotLayout) {
  // The slot of every spec field, pinned, so checkpoints written by earlier
  // builds keep restoring.
  TmpDir tmp;
  ServerOptions opt;
  opt.threads = 1;
  opt.checkpoint_dir = kTmp;
  ScenarioServer server(opt);
  ScenarioSpec spec = small_spec((std::uint64_t{5} << 32) | 7u);
  spec.nx = 23;
  spec.ny = 19;
  spec.dx = 6.5;
  spec.dy = 5.5;
  spec.dt = 0.25;
  spec.fuel_category = fire::kFuelTallGrass;
  spec.wind_u = 2.5;
  spec.wind_v = -0.5;
  spec.wind_jitter = 0.9;
  spec.realtime_speedup = 4.0;
  spec.fire.reinit_interval = 5;
  spec.fire.use_heun = false;
  spec.fire.min_fuel_frac = 0.05;
  spec.fire.scheme = levelset::UpwindScheme::kStandardGodunov;
  spec.fuel_moisture_scale = 1.3;
  spec.burn_time_scale = 0.6;
  const ScenarioId id = server.admit(spec);
  server.checkpoint_now(id);
  const std::vector<double> want = {
      2.0,                                // version
      23, 19, 6.5, 5.5, 0.25, 2,          // nx, ny, dx, dy, dt, fuel
      2.5, -0.5, 0.9, 7, 5, 4.0,          // winds, gusts, seed, pacing
      0.0, 0, 0,                          // clock, steps, phase
      5, 0, 0.05, 1, 1.3, 0.6};           // fire options, fuel scales
  EXPECT_EQ(obs::StateFile::read(server.checkpoint_path(id)).at("meta"),
            want);
}
