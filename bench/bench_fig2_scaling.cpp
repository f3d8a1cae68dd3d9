// Figure 2 reproduction: the parallel structure of one assimilation cycle.
// Ensemble members are advanced independently (member-parallel), the
// observation function runs per member, and the (morphing) EnKF is the
// global phase "on all processors"; the ensemble optionally lives in disk
// files between stages.
//
// Expected shape: the member-parallel phases (advance, obs function) speed
// up with thread count; the EnKF phase is the serial fraction; the
// file-based exchange adds a roughly constant per-cycle cost.
//
// Benchmark arguments: (members, threads, file_exchange).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/cycle.h"
#include "obs/obs_function.h"
#include "par/thread_pool.h"

using namespace wfire;

namespace {

constexpr int kGridN = 101;   // 600 m fire domain at 6 m
constexpr double kCycleLen = 10.0;

core::CycleOptions cycle_options(int members, int threads,
                                 bool file_exchange) {
  core::CycleOptions opt;
  opt.members = members;
  opt.threads = threads;
  opt.file_exchange = file_exchange;
  opt.exchange_dir = "/tmp/wfire_bench_fig2";
  opt.ignition_jitter = 20.0;
  opt.morph.sigma_r = 50.0;
  opt.morph.sigma_T = 0.5;
  return opt;
}

core::ObservationImage make_observation(double t) {
  const grid::Grid2D g(kGridN, kGridN, 6.0, 6.0);
  auto truth = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  truth->ignite({levelset::Ignition{
      levelset::CircleIgnition{320.0, 300.0, 25.0, 0.0}}});
  core::DataPool pool(std::move(truth), {}, util::Rng(99));
  return pool.observe_at(t);
}

}  // namespace

static void BM_Fig2_AssimilationCycle(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const bool file_exchange = state.range(2) != 0;

  const grid::Grid2D g(kGridN, kGridN, 6.0, 6.0);
  double advance_s = 0, obs_s = 0, enkf_s = 0, file_s = 0;
  int cycles = 0;

  for (auto _ : state) {
    state.PauseTiming();
    core::AssimilationCycle cycle(
        g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
        fire::terrain_flat(g), {}, cycle_options(members, threads,
                                                 file_exchange),
        7);
    cycle.initialize({levelset::Ignition{
        levelset::CircleIgnition{280.0, 300.0, 25.0, 0.0}}});
    const core::ObservationImage obs = make_observation(kCycleLen);
    state.ResumeTiming();

    cycle.advance_to(kCycleLen);
    cycle.assimilate(obs);

    state.PauseTiming();
    for (const auto& t : cycle.runner().timings()) {
      if (t.name == "advance") advance_s += t.seconds;
      else if (t.name == "obs_function") obs_s += t.seconds;
      else if (t.name == "enkf") enkf_s += t.seconds;
      else if (t.name.rfind("file", 0) == 0) file_s += t.seconds;
    }
    ++cycles;
    state.ResumeTiming();
  }
  state.counters["advance_s"] = advance_s / cycles;
  state.counters["obsfn_s"] = obs_s / cycles;
  state.counters["enkf_s"] = enkf_s / cycles;
  state.counters["file_s"] = file_s / cycles;
  state.counters["members"] = members;
  state.counters["threads"] = threads;
}
BENCHMARK(BM_Fig2_AssimilationCycle)
    ->Unit(benchmark::kMillisecond)
    ->Args({8, 1, 0})
    ->Args({8, 2, 0})
    ->Args({16, 1, 0})
    ->Args({16, 2, 0})
    ->Args({25, 1, 0})
    ->Args({25, 2, 0})
    ->Args({16, 2, 1})  // the paper's disk-file pipeline
    ->Iterations(1);

// Member-advance phase in isolation: the embarrassingly parallel part.
// Second argument selects the forward-model path: 0 = each member's
// FireModel stepped on its own on a pool of `threads` workers (the scalar
// oracle), 1 = the cycle's batched SoA advance. Every iteration times the
// same simulated span, one cycle [kCycleLen, 2 kCycleLen] of a freshly
// ignited ensemble; the reset and the first cycle run outside the timed
// part, so a row does not depend on the iteration count. The count is
// pinned: the library would pick it from the main thread's CPU time, which
// misses the pool's work on the scalar rows (100 iterations of /2/0, each
// with its untimed reset, took about 30 s).
static void BM_Fig2_MemberAdvance(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const bool batched = state.range(1) != 0;
  const grid::Grid2D g(kGridN, kGridN, 6.0, 6.0);
  const core::CycleOptions opt = cycle_options(16, threads, false);
  constexpr std::uint64_t kSeed = 8;
  const std::vector<levelset::Ignition> base = {levelset::Ignition{
      levelset::CircleIgnition{280.0, 300.0, 25.0, 0.0}}};
  core::AssimilationCycle cycle(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), {}, opt, kSeed);
  cycle.initialize(base);
  if (batched) {
    for (auto _ : state) {
      state.PauseTiming();
      cycle.initialize(base);
      cycle.advance_to(kCycleLen);
      state.ResumeTiming();
      cycle.advance_to(2 * kCycleLen);
    }
  } else {
    // The cycle's members and winds: member k's stream draws its ignition
    // offset (dx, dy), then its wind jitter (u, v).
    const int n = cycle.members();
    std::vector<fire::FireModel> ignited;
    std::vector<std::pair<double, double>> wind;
    for (int k = 0; k < n; ++k) {
      ignited.push_back(cycle.member(k));
      util::Rng mrng =
          util::Rng::stream(kSeed, static_cast<std::uint64_t>(k) + 1);
      (void)mrng.normal();
      (void)mrng.normal();
      const double u = opt.wind_u + opt.wind_jitter * mrng.normal();
      const double v = opt.wind_v + opt.wind_jitter * mrng.normal();
      wind.emplace_back(u, v);
    }
    std::vector<fire::FireModel> members = ignited;
    std::vector<fire::FireOutputs> out(static_cast<std::size_t>(n));
    par::ThreadPool pool(threads);
    const auto advance = [&](double t) {
      pool.parallel_for(n, [&](int k) {
        fire::FireModel& m = members[k];
        while (m.state().time < t - 1e-9) {
          const double remaining = t - m.state().time;
          m.step_uniform_wind_into(std::min(opt.dt, remaining),
                                   wind[k].first, wind[k].second, out[k]);
        }
      });
    };
    for (auto _ : state) {
      state.PauseTiming();
      members = ignited;
      advance(kCycleLen);
      state.ResumeTiming();
      advance(2 * kCycleLen);
    }
  }
  state.counters["threads"] = threads;
  state.counters["batched"] = batched ? 1 : 0;
}
BENCHMARK(BM_Fig2_MemberAdvance)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Iterations(10);

// The batched SoA advance in isolation, without the cycle's load/store
// round trip: every iteration reloads the freshly ignited members outside
// the timed part and times the advance over the first cycle [0, kCycleLen].
// Arguments: (members, band_cells); band_cells = 0 is the full-grid sweep.
static void BM_Batch_Advance(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const int band_cells = static_cast<int>(state.range(1));
  const grid::Grid2D g(kGridN, kGridN, 6.0, 6.0);
  const fire::FuelMap fuel =
      fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass);
  const util::Array2D<double> terrain = fire::terrain_flat(g);

  std::vector<std::unique_ptr<fire::FireModel>> models;
  util::Rng rng(9);
  for (int k = 0; k < members; ++k) {
    auto m = std::make_unique<fire::FireModel>(g, fuel, terrain,
                                               fire::FireModelOptions{});
    m->ignite({levelset::Ignition{levelset::CircleIgnition{
        280.0 + rng.normal(0.0, 20.0), 300.0 + rng.normal(0.0, 20.0), 25.0,
        0.0}}});
    models.push_back(std::move(m));
  }
  core::EnsembleBatch batch(g, fuel, terrain, fire::FireModelOptions{},
                            members, band_cells);
  for (int k = 0; k < members; ++k) {
    util::Rng wrng = util::Rng::stream(9, 100 + k);
    batch.set_member_wind(k, 3.0 + wrng.normal(0.0, 0.5),
                          wrng.normal(0.0, 0.5));
  }
  for (auto _ : state) {
    state.PauseTiming();
    batch.load(models);
    state.ResumeTiming();
    batch.advance_to(kCycleLen, 0.5);
  }
  state.counters["members"] = members;
  state.counters["band_cells"] = band_cells;
  state.counters["band_size"] = batch.band_size();
}
BENCHMARK(BM_Batch_Advance)
    ->Unit(benchmark::kMillisecond)
    ->Args({16, 0})
    ->Args({16, 8})
    ->Args({25, 8});

static void BM_Fig2_FileRoundTrip(benchmark::State& state) {
  // Cost of one member's state round trip through a disk file.
  const grid::Grid2D g(kGridN, kGridN, 6.0, 6.0);
  fire::FireModel model(g, fire::uniform_fuel(g.nx, g.ny,
                                              fire::kFuelShortGrass),
                        fire::terrain_flat(g));
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{280.0, 300.0, 25.0, 0.0}}});
  std::filesystem::create_directories("/tmp/wfire_bench_fig2");
  const std::string path = "/tmp/wfire_bench_fig2/member.wfst";
  for (auto _ : state) {
    obs::write_fire_state(path, model.state());
    const fire::FireState s = obs::read_fire_state(path, g.nx, g.ny);
    benchmark::DoNotOptimize(s.time);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(g.nx) * g.ny *
                          static_cast<int64_t>(sizeof(double)) * 2);
}
BENCHMARK(BM_Fig2_FileRoundTrip)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
