// Batched SoA forward-model tests: the batched ensemble advance against
// stepping each FireModel (bitwise with the band disabled, front/ignition
// agreement with the narrow band on), the assimilation cycle's advance
// against the same test-local loop, degenerate ensemble shapes, the lockstep
// guard, allocation-free redistancing, the counter-based RNG streams, and
// thread-count invariance of the assimilation cycle.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "alloc_counter.h"
#include "core/cycle.h"
#include "core/data_pool.h"
#include "core/ensemble_batch.h"
#include "fire/terrain.h"
#include "util/omp_compat.h"
#include "util/rng.h"

using namespace wfire;
using namespace wfire::core;

namespace {

grid::Grid2D small_grid() { return grid::Grid2D(41, 41, 6.0, 6.0); }

std::vector<std::unique_ptr<fire::FireModel>> make_members(
    const grid::Grid2D& g, const std::vector<std::pair<double, double>>& at,
    fire::FireModelOptions opt, double radius = 20.0) {
  std::vector<std::unique_ptr<fire::FireModel>> models;
  for (const auto& [cx, cy] : at) {
    auto m = std::make_unique<fire::FireModel>(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), opt);
    m->ignite({levelset::Ignition{levelset::CircleIgnition{cx, cy, radius,
                                                           0.0}}});
    models.push_back(std::move(m));
  }
  return models;
}

// The oracle: advances each scalar FireModel on its own, in steps of
// min(dt, time - now) like the batch.
void advance_reference(std::vector<std::unique_ptr<fire::FireModel>>& models,
                       const std::vector<std::pair<double, double>>& wind,
                       double time, double dt) {
  for (std::size_t k = 0; k < models.size(); ++k) {
    fire::FireModel& m = *models[k];
    while (m.state().time < time - 1e-9) {
      const double remaining = time - m.state().time;
      m.step_uniform_wind(std::min(dt, remaining), wind[k].first,
                          wind[k].second);
    }
  }
}

int count_burned(const util::Array2D<double>& tig) {
  int n = 0;
  for (double v : tig)
    if (v != fire::kNotIgnited) ++n;
  return n;
}

// Snapshot of a cycle's ensemble states (cycles own thread pools and are
// not movable, so tests copy the fields out).
struct CycleStates {
  std::vector<util::Array2D<double>> psi, tig;
};

CycleStates snapshot(const AssimilationCycle& cycle) {
  CycleStates s;
  for (int k = 0; k < cycle.members(); ++k) {
    s.psi.push_back(cycle.member(k).state().psi);
    s.tig.push_back(cycle.member(k).state().tig);
  }
  return s;
}

CycleStates snapshot(
    const std::vector<std::unique_ptr<fire::FireModel>>& models) {
  CycleStates s;
  for (const auto& m : models) {
    s.psi.push_back(m->state().psi);
    s.tig.push_back(m->state().tig);
  }
  return s;
}

// Copies of a freshly initialized cycle's members and the winds the cycle
// drives them with: member k's stream util::Rng::stream(seed, k + 1) draws
// the ignition offset (dx, dy) first, then the wind jitter (u, v).
struct ReferenceMembers {
  std::vector<std::unique_ptr<fire::FireModel>> models;
  std::vector<std::pair<double, double>> wind;
};

ReferenceMembers copy_members(const AssimilationCycle& cycle,
                              const CycleOptions& opt, std::uint64_t seed) {
  ReferenceMembers r;
  for (int k = 0; k < cycle.members(); ++k) {
    r.models.push_back(std::make_unique<fire::FireModel>(cycle.member(k)));
    util::Rng mrng =
        util::Rng::stream(seed, static_cast<std::uint64_t>(k) + 1);
    (void)mrng.normal();  // ignition offset dx
    (void)mrng.normal();  // ignition offset dy
    const double u = opt.wind_u + opt.wind_jitter * mrng.normal();
    const double v = opt.wind_v + opt.wind_jitter * mrng.normal();
    r.wind.emplace_back(u, v);
  }
  return r;
}

void expect_bitwise(const CycleStates& a, const CycleStates& b) {
  ASSERT_EQ(a.psi.size(), b.psi.size());
  for (std::size_t k = 0; k < a.psi.size(); ++k) {
    for (std::size_t c = 0; c < a.psi[k].size(); ++c) {
      ASSERT_EQ(a.psi[k].data()[c], b.psi[k].data()[c]) << "psi member " << k;
      ASSERT_EQ(a.tig[k].data()[c], b.tig[k].data()[c]) << "tig member " << k;
    }
  }
}

}  // namespace

// --- batched vs reference: full-grid sweeps are bitwise-equal ---

TEST(BatchVsReference, BitwiseEqualWithBandDisabled) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;  // cross a redistancing boundary in 30 steps
  // 5 members: not a multiple of the SIMD pad, so padding lanes are live.
  const std::vector<std::pair<double, double>> centers = {
      {120, 120}, {90, 120}, {150, 100}, {120, 150}, {100, 100}};
  const std::vector<std::pair<double, double>> wind = {
      {3, 0}, {2.5, 0.5}, {3.5, -0.5}, {3, 0.3}, {2.8, 0}};

  auto ref = make_members(g, centers, fopt);
  auto bat = make_members(g, centers, fopt);

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt,
                      static_cast<int>(centers.size()),
                      /*band_cells=*/0);  // full-grid sweeps
  for (int k = 0; k < batch.members(); ++k)
    batch.set_member_wind(k, wind[k].first, wind[k].second);

  advance_reference(ref, wind, 15.0, 0.5);
  batch.load(bat);
  batch.advance_to(15.0, 0.5);
  batch.store(bat);

  for (std::size_t k = 0; k < ref.size(); ++k) {
    const auto& pr = ref[k]->state().psi;
    const auto& pb = bat[k]->state().psi;
    const auto& tr = ref[k]->state().tig;
    const auto& tb = bat[k]->state().tig;
    for (std::size_t c = 0; c < pr.size(); ++c) {
      ASSERT_EQ(pr.data()[c], pb.data()[c]) << "psi member " << k;
      ASSERT_EQ(tr.data()[c], tb.data()[c]) << "tig member " << k;
    }
    // set_state refreshed the fuel fraction from tig: identical too.
    for (std::size_t c = 0; c < pr.size(); ++c)
      ASSERT_EQ(ref[k]->fuel_fraction().data()[c],
                bat[k]->fuel_fraction().data()[c]);
  }
}

TEST(BatchVsReference, SingleMemberBitwise) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  auto ref = make_members(g, {{120, 120}}, fopt);
  auto bat = make_members(g, {{120, 120}}, fopt);

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 1,
                      /*band_cells=*/0);
  batch.set_member_wind(0, 3.0, 0.0);

  advance_reference(ref, {{3.0, 0.0}}, 10.0, 0.5);
  batch.load(bat);
  batch.advance_to(10.0, 0.5);
  batch.store(bat);

  for (std::size_t c = 0; c < ref[0]->state().psi.size(); ++c)
    ASSERT_EQ(ref[0]->state().psi.data()[c], bat[0]->state().psi.data()[c]);
}

// --- narrow band: front and ignition times agree with the reference ---

TEST(BatchVsReference, NarrowBandMatchesIgnitionTimes) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;
  const std::vector<std::pair<double, double>> centers = {
      {120, 120}, {100, 130}, {140, 110}};
  const std::vector<std::pair<double, double>> wind = {
      {3, 0}, {2.5, 0.5}, {3.5, -0.5}};

  auto ref = make_members(g, centers, fopt);
  auto bat = make_members(g, centers, fopt);

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt,
                      static_cast<int>(centers.size()), /*band_cells=*/8);
  for (int k = 0; k < batch.members(); ++k)
    batch.set_member_wind(k, wind[k].first, wind[k].second);

  advance_reference(ref, wind, 30.0, 0.5);
  batch.load(bat);
  EXPECT_LT(batch.band_size(), g.nx * g.ny);  // the band is actually narrow
  batch.advance_to(30.0, 0.5);
  batch.store(bat);

  for (std::size_t k = 0; k < ref.size(); ++k) {
    const auto& tr = ref[k]->state().tig;
    const auto& tb = bat[k]->state().tig;
    int disagree = 0;
    for (std::size_t c = 0; c < tr.size(); ++c) {
      const bool br = tr.data()[c] != fire::kNotIgnited;
      const bool bb = tb.data()[c] != fire::kNotIgnited;
      if (br != bb) {
        ++disagree;
        continue;
      }
      if (br) {
        EXPECT_NEAR(tr.data()[c], tb.data()[c], 1e-4);
      }
    }
    // The burned sets may differ by at most a rounding sliver of cells.
    EXPECT_LE(disagree, 2) << "member " << k;
  }
}

TEST(BatchVsReference, BandTouchingDomainEdge) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;  // keep the band in its valid cadence regime
  // Ignition hugging the boundary: the band clips against the domain edge.
  auto ref = make_members(g, {{10, 10}, {230, 120}}, fopt);
  auto bat = make_members(g, {{10, 10}, {230, 120}}, fopt);

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2,
                      /*band_cells=*/6);
  batch.set_member_wind(0, 3.0, 1.0);
  batch.set_member_wind(1, -2.0, 0.0);

  advance_reference(ref, {{3.0, 1.0}, {-2.0, 0.0}}, 20.0, 0.5);
  batch.load(bat);
  batch.advance_to(20.0, 0.5);
  batch.store(bat);

  for (std::size_t k = 0; k < ref.size(); ++k) {
    const int nr = count_burned(ref[k]->state().tig);
    const int nb = count_burned(bat[k]->state().tig);
    EXPECT_GT(nb, 0);
    EXPECT_NEAR(nr, nb, 3) << "member " << k;
  }
}

TEST(BatchVsReference, FullyBurnedMemberIsStable) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  // Member 0: the whole domain already burned (psi < 0 everywhere).
  // Member 1: a normal fire.
  auto ref = make_members(g, {{120, 120}, {120, 120}}, fopt, 20.0);
  ref[0]->ignite({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 500.0, 0.0}}});
  auto bat = make_members(g, {{120, 120}, {120, 120}}, fopt, 20.0);
  bat[0]->ignite({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 500.0, 0.0}}});

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2,
                      /*band_cells=*/8);
  batch.set_member_wind(0, 3.0, 0.0);
  batch.set_member_wind(1, 3.0, 0.0);

  advance_reference(ref, {{3.0, 0.0}, {3.0, 0.0}}, 10.0, 0.5);
  batch.load(bat);
  batch.advance_to(10.0, 0.5);
  batch.store(bat);

  // The fully-burned member stays fully burned in both paths.
  EXPECT_EQ(count_burned(ref[0]->state().tig), g.nx * g.ny);
  EXPECT_EQ(count_burned(bat[0]->state().tig), g.nx * g.ny);
  // The normal member agrees across paths.
  EXPECT_NEAR(count_burned(ref[1]->state().tig),
              count_burned(bat[1]->state().tig), 3);
}

TEST(BatchVsReference, DelayedIgnitionsApplyInBatchBitwise) {
  // A member carries a delayed ignition through load(): the batch applies
  // it mid-advance with the reference path's min-merge arithmetic, and any
  // leftover queue survives store(). Band off -> bitwise agreement.
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  const std::vector<levelset::Ignition> shapes = {
      levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}},
      levelset::Ignition{levelset::CircleIgnition{60.0, 60.0, 15.0, 4.0}},
      levelset::Ignition{levelset::CircleIgnition{180.0, 60.0, 15.0, 1e9}}};
  auto ref = make_members(g, {{120, 120}, {100, 130}}, fopt);
  auto bat = make_members(g, {{120, 120}, {100, 130}}, fopt);
  ref[0]->ignite(shapes);
  bat[0]->ignite(shapes);
  ASSERT_FALSE(bat[0]->pending_ignitions().empty());

  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2,
                      /*band_cells=*/0);
  batch.set_member_wind(0, 3.0, 0.0);
  batch.set_member_wind(1, 2.5, 0.5);

  advance_reference(ref, {{3.0, 0.0}, {2.5, 0.5}}, 10.0, 0.5);
  batch.load(bat);
  batch.advance_to(10.0, 0.5);
  batch.store(bat);

  for (std::size_t k = 0; k < ref.size(); ++k) {
    const auto& pr = ref[k]->state().psi;
    const auto& pb = bat[k]->state().psi;
    for (std::size_t c = 0; c < pr.size(); ++c) {
      ASSERT_EQ(pr.data()[c], pb.data()[c]) << "member " << k;
      ASSERT_EQ(ref[k]->state().tig.data()[c], bat[k]->state().tig.data()[c]);
    }
  }
  // The far-future shape is still pending on both paths after store().
  EXPECT_FALSE(ref[0]->pending_ignitions().empty());
  EXPECT_FALSE(bat[0]->pending_ignitions().empty());
  EXPECT_TRUE(bat[1]->pending_ignitions().empty());
}

// --- the lockstep guard: load() rejects members out of step ---

TEST(BatchLockstep, LoadRejectsTimeAndReinitPhaseSkew) {
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;
  const std::vector<std::pair<double, double>> centers = {{120, 120},
                                                          {100, 130}};
  EnsembleBatch batch(g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
                      fire::terrain_flat(g), fopt, 2, /*band_cells=*/0);

  // In lockstep: accepted.
  auto models = make_members(g, centers, fopt);
  EXPECT_NO_THROW(batch.load(models));

  // One member a step ahead in time (same redistancing phase).
  models[1]->step_uniform_wind(0.5, 3.0, 0.0);
  models[1]->set_steps_since_reinit(0);
  EXPECT_THROW(batch.load(models), std::invalid_argument);

  // Same time, different redistancing phase.
  models = make_members(g, centers, fopt);
  models[0]->set_steps_since_reinit(3);
  EXPECT_THROW(batch.load(models), std::invalid_argument);
}

// --- redistancing allocates nothing once the batch is warm ---

TEST(BatchAlloc, RedistancingAllocatesNothing) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // The counter sees the calling thread only: keep the OpenMP regions on it.
  util::ScopedOmpNumThreads omp(1);
  const grid::Grid2D g = small_grid();
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;
  const std::vector<std::pair<double, double>> centers = {
      {120, 120}, {90, 120}, {150, 100}, {120, 150}, {100, 100}};
  for (const int band : {0, 8}) {
    auto models = make_members(g, centers, fopt);
    EnsembleBatch batch(g, models[0]->fuel(), models[0]->terrain(), fopt,
                        static_cast<int>(centers.size()), band);
    for (int k = 0; k < batch.members(); ++k)
      batch.set_member_wind(k, 3.0, 0.2 * k);
    // The first pass grows every scratch to its high-water mark (the band
    // index list and the compact band arrays grow with the fire); replaying
    // the same 60 steps, across six redistancings, must then allocate
    // nothing.
    batch.load(models);
    batch.advance_to(30.0, 0.5);
    batch.load(models);
    EXPECT_EQ(count_allocs([&] { batch.advance_to(30.0, 0.5); }), 0)
        << "band " << band;
  }
#endif
}

// The cycle's whole advance (load, the batched steps with their
// redistancings, store back into the members) allocates nothing once warm.
TEST(BatchAlloc, CycleAdvanceAllocatesNothing) {
#if !WFIRE_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // Pool width 1 also narrows the advance's OpenMP team to the calling
  // thread, the one the counter sees.
  util::ScopedOmpNumThreads omp(1);
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 6;
  opt.threads = 1;
  opt.ignition_jitter = 20.0;
  opt.band_cells = 0;
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;
  AssimilationCycle cycle(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), fopt, opt, 23);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  cycle.advance_to(6.0);  // builds the batch and sizes its scratch
  for (const double t : {12.0, 18.0})
    EXPECT_EQ(count_allocs([&] { cycle.advance_to(t); }), 0) << "to " << t;
#endif
}

// --- the cycle's advance matches stepping copies of its members ---

TEST(CycleBatch, FullCycleBitwiseWithBandDisabled) {
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 5;
  opt.threads = 2;
  opt.ignition_jitter = 20.0;
  opt.band_cells = 0;
  ASSERT_GT(opt.wind_jitter, 0.0);  // members differ in wind
  AssimilationCycle cycle(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), {}, opt, 21);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  ReferenceMembers ref = copy_members(cycle, opt, 21);

  cycle.advance_to(12.0);
  advance_reference(ref.models, ref.wind, 12.0, opt.dt);
  expect_bitwise(snapshot(cycle), snapshot(ref.models));
}

TEST(CycleBatch, DelayedIgnitionsDoNotForceFallback) {
  // The batch carries each member's delayed-ignition queue across a
  // multi-phase advance; with the band disabled it must still agree
  // bitwise with stepping each member.
  const grid::Grid2D g = small_grid();
  const std::vector<levelset::Ignition> base = {
      levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}},
      levelset::Ignition{levelset::CircleIgnition{60.0, 180.0, 15.0, 5.0}}};
  CycleOptions opt;
  opt.members = 5;
  opt.threads = 2;
  opt.ignition_jitter = 20.0;
  opt.band_cells = 0;
  AssimilationCycle cycle(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), {}, opt, 21);
  cycle.initialize(base);
  ReferenceMembers ref = copy_members(cycle, opt, 21);

  cycle.advance_to(3.0);
  advance_reference(ref.models, ref.wind, 3.0, opt.dt);
  // The delayed shape is still pending here.
  EXPECT_FALSE(cycle.member(0).pending_ignitions().empty());
  cycle.advance_to(12.0);
  advance_reference(ref.models, ref.wind, 12.0, opt.dt);
  EXPECT_TRUE(cycle.member(0).pending_ignitions().empty());
  expect_bitwise(snapshot(cycle), snapshot(ref.models));
}

TEST(CycleBatch, NarrowBandCycleTracksReference) {
  const grid::Grid2D g = small_grid();
  CycleOptions opt;
  opt.members = 4;
  opt.threads = 2;
  opt.ignition_jitter = 15.0;
  opt.band_cells = 8;
  // Frequent redistancing keeps the narrow band in its agreement regime
  // (see the cadence caveat in core/ensemble_batch.h).
  fire::FireModelOptions fopt;
  fopt.reinit_interval = 10;
  AssimilationCycle cycle(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), fopt, opt, 22);
  cycle.initialize({levelset::Ignition{
      levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  ReferenceMembers ref = copy_members(cycle, opt, 22);

  cycle.advance_to(20.0);
  advance_reference(ref.models, ref.wind, 20.0, opt.dt);
  for (int k = 0; k < cycle.members(); ++k) {
    const int nb = count_burned(cycle.member(k).state().tig);
    const int nr = count_burned(ref.models[k]->state().tig);
    EXPECT_GT(nb, 0);
    EXPECT_NEAR(nb, nr, 3) << "member " << k;
  }
}

// --- counter-based RNG streams ---

TEST(RngStream, PureFunctionOfSeedAndId) {
  util::Rng a = util::Rng::stream(42, 7);
  // Interleave unrelated draws; the stream must not care.
  util::Rng noise(99);
  noise.normal();
  noise.normal();
  util::Rng b = util::Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, DistinctIdsDecorrelated) {
  util::Rng a = util::Rng::stream(42, 1);
  util::Rng b = util::Rng::stream(42, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_EQ(equal, 0);
  // Sample means of each stream are near 0 (sanity, not a statistics test).
  util::Rng c = util::Rng::stream(7, 3);
  double mean = 0;
  for (int i = 0; i < 4096; ++i) mean += c.normal();
  EXPECT_LT(std::abs(mean / 4096.0), 0.1);
}

// --- thread-count invariance of the ensemble states ---

TEST(ThreadInvariance, InitializeAndAdvanceIdenticalAcrossPoolSizes) {
  const grid::Grid2D g = small_grid();
  auto run = [&](int threads) {
    CycleOptions opt;
    opt.members = 5;
    opt.threads = threads;
    opt.ignition_jitter = 20.0;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, opt, 33);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
    cycle.advance_to(10.0);
    return snapshot(cycle);
  };
  // This binary is additionally run with OMP_NUM_THREADS=4 forced (see
  // tests/CMakeLists.txt), so the comparison covers OpenMP widths too.
  const CycleStates one = run(1);
  const CycleStates four = run(4);
  for (std::size_t k = 0; k < one.psi.size(); ++k) {
    for (std::size_t c = 0; c < one.psi[k].size(); ++c) {
      ASSERT_EQ(one.psi[k].data()[c], four.psi[k].data()[c])
          << "psi member " << k;
      ASSERT_EQ(one.tig[k].data()[c], four.tig[k].data()[c])
          << "tig member " << k;
    }
  }
}

// The analysis half across widths: registration and the member decode run in
// member-parallel OpenMP loops, the observation function and state update in
// pool phases. Member states and every AnalysisResult field must match
// bitwise between (pool 1, OMP 1) and (pool 4, OMP 4) on every repetition.
TEST(ThreadInvariance, AssimilateIdenticalAcrossPoolAndOmpWidths) {
  const grid::Grid2D g = small_grid();
  auto truth = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  truth->ignite({levelset::Ignition{
      levelset::CircleIgnition{140.0, 120.0, 20.0, 0.0}}});
  DataPool source(std::move(truth), {}, util::Rng(9));
  const ObservationImage obs = source.observe_at(10.0);

  struct Run {
    CycleStates states;
    AnalysisResult analysis;
  };
  auto run = [&](int width) {
    util::ScopedOmpNumThreads omp(width);
    CycleOptions opt;
    opt.members = 16;
    opt.threads = width;
    opt.ignition_jitter = 20.0;
    opt.filter = FilterKind::kMorphingEnKF;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, opt, 35);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
    cycle.advance_to(10.0);
    Run r;
    r.analysis = cycle.assimilate(obs);
    cycle.advance_to(15.0);
    r.states = snapshot(cycle);
    return r;
  };
  const Run one = run(1);
  for (int rep = 0; rep < 6; ++rep) {
    const Run four = run(4);
    const AnalysisResult& a = one.analysis;
    const AnalysisResult& b = four.analysis;
    EXPECT_EQ(a.enkf.n, b.enkf.n);
    EXPECT_EQ(a.enkf.m, b.enkf.m);
    EXPECT_EQ(a.enkf.N, b.enkf.N);
    EXPECT_EQ(a.enkf.innovation_rms, b.enkf.innovation_rms) << "rep " << rep;
    EXPECT_EQ(a.enkf.increment_rms, b.enkf.increment_rms) << "rep " << rep;
    EXPECT_EQ(a.mean_registration_residual, b.mean_registration_residual)
        << "rep " << rep;
    EXPECT_EQ(a.max_mapping_norm, b.max_mapping_norm) << "rep " << rep;
    for (std::size_t k = 0; k < one.states.psi.size(); ++k) {
      for (std::size_t c = 0; c < one.states.psi[k].size(); ++c) {
        ASSERT_EQ(one.states.psi[k].data()[c], four.states.psi[k].data()[c])
            << "psi member " << k << " rep " << rep;
        ASSERT_EQ(one.states.tig[k].data()[c], four.states.tig[k].data()[c])
            << "tig member " << k << " rep " << rep;
      }
    }
  }
}
