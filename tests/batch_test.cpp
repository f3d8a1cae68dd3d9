// Batched SoA forward-model tests: the batched ensemble advance against the
// per-member reference path (bitwise with the band disabled, front/ignition
// agreement with the narrow band on), degenerate ensemble shapes, the
// counter-based RNG streams, and thread-count invariance of the assimilation
// cycle.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/cycle.h"
#include "core/ensemble_batch.h"
#include "fire/terrain.h"
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

// Advances the scalar reference members in lockstep.
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
  bool batched = false;
};

CycleStates snapshot(const AssimilationCycle& cycle) {
  CycleStates s;
  s.batched = cycle.last_advance_batched();
  for (int k = 0; k < cycle.members(); ++k) {
    s.psi.push_back(cycle.member(k).state().psi);
    s.tig.push_back(cycle.member(k).state().tig);
  }
  return s;
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

  EnsembleBatchOptions bopt;
  bopt.band_cells = 0;  // full-grid sweeps
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt,
                      static_cast<int>(centers.size()), bopt);
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

  EnsembleBatchOptions bopt;
  bopt.band_cells = 0;
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 1, bopt);
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

  EnsembleBatchOptions bopt;
  bopt.band_cells = 8;
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt,
                      static_cast<int>(centers.size()), bopt);
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

  EnsembleBatchOptions bopt;
  bopt.band_cells = 6;
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2, bopt);
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

  EnsembleBatchOptions bopt;
  bopt.band_cells = 8;
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2, bopt);
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
  ASSERT_TRUE(bat[0]->has_pending_ignitions());

  EnsembleBatchOptions bopt;
  bopt.band_cells = 0;
  EnsembleBatch batch(g, ref[0]->fuel(), ref[0]->terrain(), fopt, 2, bopt);
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
  EXPECT_TRUE(ref[0]->has_pending_ignitions());
  EXPECT_TRUE(bat[0]->has_pending_ignitions());
  EXPECT_FALSE(bat[1]->has_pending_ignitions());
}

// --- the cycle dispatch: batched path matches the reference path ---

TEST(CycleBatch, FullCycleBitwiseWithBandDisabled) {
  const grid::Grid2D g = small_grid();
  auto run = [&](AdvanceMode mode) {
    CycleOptions opt;
    opt.members = 5;
    opt.threads = 2;
    opt.ignition_jitter = 20.0;
    opt.advance = mode;
    opt.band_cells = 0;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, opt, 21);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
    cycle.advance_to(12.0);
    return snapshot(cycle);
  };
  // Two separately built cycles so no state leaks between the runs.
  const CycleStates batched = run(AdvanceMode::kBatched);
  const CycleStates reference = run(AdvanceMode::kReference);
  EXPECT_TRUE(batched.batched);
  EXPECT_FALSE(reference.batched);
  ASSERT_EQ(batched.psi.size(), reference.psi.size());
  for (std::size_t k = 0; k < batched.psi.size(); ++k) {
    for (std::size_t c = 0; c < batched.psi[k].size(); ++c) {
      ASSERT_EQ(batched.psi[k].data()[c], reference.psi[k].data()[c])
          << "psi member " << k;
      ASSERT_EQ(batched.tig[k].data()[c], reference.tig[k].data()[c])
          << "tig member " << k;
    }
  }
}

TEST(CycleBatch, DelayedIgnitionsDoNotForceFallback) {
  // Delayed ignitions used to silently drop the cycle onto the reference
  // path; the batch now carries them, so a full multi-phase advance must
  // batch every time with the fallback counter staying at zero — and the
  // two paths must still agree bitwise with the band disabled.
  const grid::Grid2D g = small_grid();
  const std::vector<levelset::Ignition> base = {
      levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}},
      levelset::Ignition{levelset::CircleIgnition{60.0, 180.0, 15.0, 5.0}}};
  auto run = [&](AdvanceMode mode) {
    CycleOptions opt;
    opt.members = 5;
    opt.threads = 2;
    opt.ignition_jitter = 20.0;
    opt.advance = mode;
    opt.band_cells = 0;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, opt, 21);
    cycle.initialize(base);
    cycle.advance_to(3.0);  // the delayed shape is still pending here
    cycle.advance_to(12.0);
    if (mode == AdvanceMode::kBatched) {
      EXPECT_TRUE(cycle.last_advance_batched());
      EXPECT_EQ(cycle.last_fallback_reason(), FallbackReason::kNone);
      EXPECT_EQ(cycle.fallback_count(), 0);
    } else {
      EXPECT_EQ(cycle.last_fallback_reason(), FallbackReason::kModeReference);
      EXPECT_EQ(cycle.fallback_count(), 0);
    }
    return snapshot(cycle);
  };
  const CycleStates batched = run(AdvanceMode::kBatched);
  const CycleStates reference = run(AdvanceMode::kReference);
  EXPECT_TRUE(batched.batched);
  ASSERT_EQ(batched.psi.size(), reference.psi.size());
  for (std::size_t k = 0; k < batched.psi.size(); ++k)
    for (std::size_t c = 0; c < batched.psi[k].size(); ++c) {
      ASSERT_EQ(batched.psi[k].data()[c], reference.psi[k].data()[c])
          << "psi member " << k;
      ASSERT_EQ(batched.tig[k].data()[c], reference.tig[k].data()[c])
          << "tig member " << k;
    }
}

TEST(CycleBatch, NarrowBandCycleTracksReference) {
  const grid::Grid2D g = small_grid();
  auto run = [&](AdvanceMode mode, int band) {
    CycleOptions opt;
    opt.members = 4;
    opt.threads = 2;
    opt.ignition_jitter = 15.0;
    opt.advance = mode;
    opt.band_cells = band;
    // Frequent redistancing keeps the narrow band in its agreement regime
    // (see the cadence caveat in core/ensemble_batch.h).
    fire::FireModelOptions fopt;
    fopt.reinit_interval = 10;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), fopt, opt, 22);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
    cycle.advance_to(20.0);
    return snapshot(cycle);
  };
  const CycleStates batched = run(AdvanceMode::kBatched, 8);
  const CycleStates reference = run(AdvanceMode::kReference, 8);
  for (std::size_t k = 0; k < batched.tig.size(); ++k) {
    const int nb = count_burned(batched.tig[k]);
    const int nr = count_burned(reference.tig[k]);
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

TEST(ThreadInvariance, ReferencePathAlsoInvariant) {
  const grid::Grid2D g = small_grid();
  auto run = [&](int threads) {
    CycleOptions opt;
    opt.members = 4;
    opt.threads = threads;
    opt.ignition_jitter = 20.0;
    opt.advance = AdvanceMode::kReference;
    AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, opt, 34);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
    cycle.advance_to(10.0);
    return snapshot(cycle);
  };
  const CycleStates one = run(1);
  const CycleStates four = run(4);
  for (std::size_t k = 0; k < one.psi.size(); ++k)
    for (std::size_t c = 0; c < one.psi[k].size(); ++c)
      ASSERT_EQ(one.psi[k].data()[c], four.psi[k].data()[c])
          << "psi member " << k;
}
