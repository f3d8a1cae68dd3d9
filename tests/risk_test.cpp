// Risk-layer tests: the order-free burn-probability reduction, the batched
// sweep against per-member server runs, sweep determinism across OpenMP
// widths (the product is a pure function of (base, perturbation) —
// execution knobs are bitwise-irrelevant), the single-flight product cache
// and its frequency-aware admission,
// risk::score() on hand-constructed grids with known confusion matrices,
// and the scenario-spec schema pinned across admit validation, checkpoints
// and product keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/data_pool.h"
#include "fire/terrain.h"
#include "obs/statefile.h"
#include "risk/product_cache.h"
#include "risk/sweep.h"
#include "serve/scenario_server.h"
#include "util/rng.h"

using namespace wfire;
using namespace wfire::risk;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

serve::ScenarioSpec sweep_base(std::uint64_t seed = 7) {
  serve::ScenarioSpec spec;
  spec.nx = 21;
  spec.ny = 21;
  spec.dx = 6.0;
  spec.dy = 6.0;
  spec.dt = 0.5;
  spec.wind_u = 2.0;
  spec.wind_v = 0.5;
  spec.wind_jitter = 0.5;  // gust streams active, so seeds matter
  spec.seed = seed;
  spec.fire.reinit_interval = 8;
  spec.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{60.0, 60.0, 15.0, 0.0}}};
  return spec;
}

PerturbationSpec sweep_pert() {
  PerturbationSpec pert;
  pert.wind_speed_sigma = 0.6;
  pert.wind_dir_sigma = 0.25;
  pert.moisture_sigma = 0.2;
  pert.burn_time_sigma = 0.2;
  pert.ignition_jitter = 5.0;
  pert.seed = 1234;
  return pert;
}

// A product that sweeps in about a millisecond: 2 members to 1 s on the
// sweep_base() grid, one thread. Each id is a distinct product key.
struct TinyProduct {
  serve::ScenarioSpec base = sweep_base();
  PerturbationSpec pert = sweep_pert();
  SweepOptions opt;
  explicit TinyProduct(std::uint64_t id) {
    pert.seed = id;
    opt.members = 2;
    opt.horizon = 1.0;
    opt.threads = 1;
  }
  [[nodiscard]] std::uint64_t key() const {
    return product_key(base, pert, opt);
  }
};

std::shared_ptr<const BurnProbabilityGrid> fetch_tiny(ProductCache& cache,
                                                      std::uint64_t id) {
  const TinyProduct p(id);
  return cache.fetch(p.base, p.pert, p.opt);
}

// Zipf(s) popularity over ranks 0..n-1: rank r drawn with probability
// proportional to (r + 1)^-s, by inverting the cdf like perfbench's
// risk_products workload does.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0;
    for (std::size_t r = 0; r < cdf_.size(); ++r)
      cdf_[r] = total += std::pow(static_cast<double>(r) + 1.0, -s);
    for (double& c : cdf_) c /= total;
  }
  int operator()(util::Rng& rng) const {
    const double u = rng.uniform();
    std::size_t r = 0;
    while (r + 1 < cdf_.size() && cdf_[r] < u) ++r;
    return static_cast<int>(r);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

// ---------------------------------------------------------------------------
// score() on hand-constructed grids: every confusion-matrix cell exercised
// with counts small enough to verify by hand.

TEST(Score, HandConstructedGridHasKnownF1) {
  BurnProbabilityGrid grid;
  grid.nx = 2;
  grid.ny = 2;
  grid.dx = grid.dy = 6.0;
  grid.horizon = 100.0;
  grid.members = 1;
  grid.probability = util::Array2D<double>(2, 2, 0.0);
  grid.probability(0, 0) = 1.0;  // burned in truth -> tp
  grid.probability(1, 0) = 1.0;  // unburned in truth -> fp
  // (0,1) predicted cold but burned -> fn; (1,1) cold both -> tn.

  util::Array2D<double> ref(2, 2, kInf);
  ref(0, 0) = 0.0;
  ref(0, 1) = 10.0;

  const Scores s = score(grid, 0.5, ref, 100.0);
  EXPECT_EQ(s.tp, 1);
  EXPECT_EQ(s.fp, 1);
  EXPECT_EQ(s.fn, 1);
  EXPECT_EQ(s.tn, 1);
  EXPECT_DOUBLE_EQ(s.precision, 0.5);
  EXPECT_DOUBLE_EQ(s.recall, 0.5);
  EXPECT_DOUBLE_EQ(s.f1, 0.5);
}

TEST(Score, PerfectPredictionScoresOne) {
  BurnProbabilityGrid grid;
  grid.nx = 3;
  grid.ny = 1;
  grid.members = 1;
  grid.probability = util::Array2D<double>(3, 1, 0.0);
  grid.probability(0, 0) = 1.0;
  grid.probability(2, 0) = 0.9;

  util::Array2D<double> ref(3, 1, kInf);
  ref(0, 0) = 5.0;
  ref(2, 0) = 40.0;

  const Scores s = score(grid, 0.5, ref, 60.0);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
  EXPECT_DOUBLE_EQ(s.f1, 1.0);
}

TEST(Score, EmptyPredictionIsZeroNotNaN) {
  BurnProbabilityGrid grid;
  grid.nx = 2;
  grid.ny = 1;
  grid.members = 1;
  grid.probability = util::Array2D<double>(2, 1, 0.0);
  util::Array2D<double> ref(2, 1, 0.0);  // everything burned in truth

  const Scores s = score(grid, 0.5, ref, 10.0);
  EXPECT_EQ(s.tp, 0);
  EXPECT_EQ(s.fn, 2);
  EXPECT_DOUBLE_EQ(s.precision, 0.0);
  EXPECT_DOUBLE_EQ(s.recall, 0.0);
  EXPECT_DOUBLE_EQ(s.f1, 0.0);
}

TEST(Score, ReferenceShapeMismatchThrows) {
  BurnProbabilityGrid grid;
  grid.nx = 2;
  grid.ny = 2;
  grid.probability = util::Array2D<double>(2, 2, 0.0);
  util::Array2D<double> ref(3, 2, kInf);
  EXPECT_THROW((void)score(grid, 0.5, ref, 10.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The streaming reduction: integer counts, member-indexed arrival slots,
// exact quantiles.

TEST(Accumulator, ReductionCountsArrivalsAndQuantiles) {
  BurnProbabilityAccumulator acc(2, 1, 6.0, 6.0, 3, 100.0);

  util::Array2D<double> m0(2, 1, kInf), m1(2, 1, kInf), m2(2, 1, kInf);
  m0(0, 0) = 10.0;
  m1(0, 0) = 20.0;
  m1(1, 0) = 50.0;
  m2(0, 0) = 30.0;
  m2(1, 0) = 200.0;  // past the horizon: not burned at the forecast time

  // Arrival order is arbitrary by contract.
  acc.add_member(2, m2);
  acc.add_member(0, m0);
  acc.add_member(1, m1);

  const BurnProbabilityGrid grid = acc.finalize();
  EXPECT_EQ(grid.burned_count(0, 0), 3);
  EXPECT_EQ(grid.burned_count(1, 0), 1);
  EXPECT_DOUBLE_EQ(grid.probability(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(grid.probability(1, 0), 1.0 / 3.0);

  EXPECT_DOUBLE_EQ(grid.arrival(0, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(grid.arrival(0, 0, 1), 20.0);
  EXPECT_DOUBLE_EQ(grid.arrival(0, 0, 2), 30.0);
  EXPECT_DOUBLE_EQ(grid.arrival(1, 0, 1), 50.0);
  EXPECT_TRUE(std::isinf(grid.arrival(1, 0, 0)));
  EXPECT_TRUE(std::isinf(grid.arrival(1, 0, 2)));

  EXPECT_DOUBLE_EQ(grid.arrival_quantile(0.0)(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(grid.arrival_quantile(0.5)(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(grid.arrival_quantile(1.0)(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(grid.arrival_quantile(0.5)(1, 0), 50.0);

  EXPECT_NEAR(grid.expected_burned_area(), (1.0 + 1.0 / 3.0) * 36.0, 1e-12);
}

TEST(Accumulator, GuardsRejectBadFolds) {
  BurnProbabilityAccumulator acc(2, 2, 6.0, 6.0, 2, 50.0);
  util::Array2D<double> tig(2, 2, kInf);

  EXPECT_THROW(acc.add_member(-1, tig), std::out_of_range);
  EXPECT_THROW(acc.add_member(2, tig), std::out_of_range);
  EXPECT_THROW(acc.finalize(), std::logic_error);  // nothing added yet

  acc.add_member(0, tig);
  EXPECT_THROW(acc.add_member(0, tig), std::logic_error);  // already added
  EXPECT_THROW(acc.finalize(), std::logic_error);          // one missing

  util::Array2D<double> wrong(3, 2, kInf);
  EXPECT_THROW(acc.add_member(1, wrong), std::invalid_argument);

  acc.add_member(1, tig);
  EXPECT_NO_THROW((void)acc.finalize());
  EXPECT_THROW(BurnProbabilityAccumulator(0, 2, 6.0, 6.0, 2, 50.0),
               std::invalid_argument);
  EXPECT_THROW(BurnProbabilityAccumulator(2, 2, 6.0, 6.0, 0, 50.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// perturb_member: a pure function of (base, pert, k) with a fixed draw order.

TEST(Sweep, PerturbMemberIsPure) {
  const serve::ScenarioSpec base = sweep_base();
  const PerturbationSpec pert = sweep_pert();

  const serve::ScenarioSpec a = perturb_member(base, pert, 3);
  const serve::ScenarioSpec b = perturb_member(base, pert, 3);
  EXPECT_EQ(a.wind_u, b.wind_u);
  EXPECT_EQ(a.wind_v, b.wind_v);
  EXPECT_EQ(a.fuel_moisture_scale, b.fuel_moisture_scale);
  EXPECT_EQ(a.burn_time_scale, b.burn_time_scale);
  EXPECT_EQ(a.seed, b.seed);
  const auto& ca = std::get<levelset::CircleIgnition>(a.ignitions[0]);
  const auto& cb = std::get<levelset::CircleIgnition>(b.ignitions[0]);
  EXPECT_EQ(ca.cx, cb.cx);
  EXPECT_EQ(ca.cy, cb.cy);

  const serve::ScenarioSpec c = perturb_member(base, pert, 4);
  EXPECT_NE(a.wind_u, c.wind_u);
  EXPECT_NE(a.seed, c.seed);

  EXPECT_THROW(perturb_member(base, pert, -1), std::invalid_argument);
}

TEST(Sweep, ZeroSigmasLeaveTheBaseUntouched) {
  const serve::ScenarioSpec base = sweep_base();
  PerturbationSpec none;  // all sigmas zero
  none.seed = 99;

  const serve::ScenarioSpec spec = perturb_member(base, none, 0);
  // Wind round-trips through speed/direction space: equal up to rounding.
  EXPECT_NEAR(spec.wind_u, base.wind_u, 1e-12);
  EXPECT_NEAR(spec.wind_v, base.wind_v, 1e-12);
  EXPECT_EQ(spec.fuel_moisture_scale, base.fuel_moisture_scale);
  EXPECT_EQ(spec.burn_time_scale, base.burn_time_scale);
  const auto& c = std::get<levelset::CircleIgnition>(spec.ignitions[0]);
  const auto& c0 = std::get<levelset::CircleIgnition>(base.ignitions[0]);
  EXPECT_EQ(c.cx, c0.cx);
  EXPECT_EQ(c.cy, c0.cy);
  // The gust seed is still re-derived (members must decorrelate even with
  // no spec perturbation at all).
  EXPECT_NE(spec.seed, base.seed);
}

TEST(Sweep, ZeroingOneAxisLeavesTheOthersDraws) {
  // The draw order is fixed and independent of which sigmas are zero:
  // turning off the moisture axis must not reshuffle wind or burn time.
  const serve::ScenarioSpec base = sweep_base();
  const PerturbationSpec full = sweep_pert();
  PerturbationSpec no_moist = full;
  no_moist.moisture_sigma = 0;

  const serve::ScenarioSpec a = perturb_member(base, full, 5);
  const serve::ScenarioSpec b = perturb_member(base, no_moist, 5);
  EXPECT_EQ(a.wind_u, b.wind_u);
  EXPECT_EQ(a.wind_v, b.wind_v);
  EXPECT_EQ(a.burn_time_scale, b.burn_time_scale);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_NE(a.fuel_moisture_scale, b.fuel_moisture_scale);
  EXPECT_EQ(b.fuel_moisture_scale, base.fuel_moisture_scale);
}

TEST(Sweep, ProductKeyTracksProductNotExecution) {
  const serve::ScenarioSpec base = sweep_base();
  const PerturbationSpec pert = sweep_pert();
  SweepOptions opt;
  opt.members = 16;
  opt.horizon = 30.0;

  const std::uint64_t key = product_key(base, pert, opt);
  EXPECT_EQ(product_key(base, pert, opt), key);

  // Execution knobs are excluded by contract.
  SweepOptions exec = opt;
  exec.threads = 7;
  EXPECT_EQ(product_key(base, pert, exec), key);

  SweepOptions more = opt;
  more.members = 17;
  EXPECT_NE(product_key(base, pert, more), key);
  SweepOptions longer = opt;
  longer.horizon = 31.0;
  EXPECT_NE(product_key(base, pert, longer), key);

  PerturbationSpec reseeded = pert;
  reseeded.seed ^= 1;
  EXPECT_NE(product_key(base, reseeded, opt), key);

  serve::ScenarioSpec windier = base;
  windier.wind_u += 0.25;
  EXPECT_NE(product_key(windier, pert, opt), key);
}

// ---------------------------------------------------------------------------
// One field table (serve/spec.cpp) drives admit() validation, the
// checkpoint meta and product_key(). Perturbing each trajectory field in
// turn must stay admissible, change the product key, be recorded in the
// checkpoint, and survive checkpoint -> restore.

namespace {

const char* kSchemaTmp = "/tmp/wfire_risk_schema_test";

struct CheckpointTrip {
  obs::Sections written;    // checkpoint of the admitted scenario at t = 3 s
  obs::Sections rewritten;  // that checkpoint restored, then written again
  fire::FireState uninterrupted, resumed;  // both advanced on to t = 6 s
};

CheckpointTrip checkpoint_trip(const serve::ScenarioSpec& spec) {
  serve::ServerOptions opt;
  opt.threads = 1;
  opt.inline_cell_steps = 1L << 40;
  opt.checkpoint_dir = kSchemaTmp;
  serve::ScenarioServer server(opt);
  const serve::ScenarioId id = server.admit(spec);
  server.request_advance(id, 3.0);
  server.wait(id);
  server.checkpoint_now(id);
  CheckpointTrip trip;
  trip.written = obs::StateFile::read(server.checkpoint_path(id));
  const serve::ScenarioId rid = server.restore(server.checkpoint_path(id));
  server.checkpoint_now(rid);
  trip.rewritten = obs::StateFile::read(server.checkpoint_path(rid));
  server.request_advance(id, 6.0);
  server.request_advance(rid, 6.0);
  server.wait_all();
  trip.uninterrupted = server.state(id);
  trip.resumed = server.state(rid);
  return trip;
}

}  // namespace

TEST(SpecSchema, EveryTrajectoryFieldKeysAndRoundTrips) {
  std::filesystem::remove_all(kSchemaTmp);
  const serve::ScenarioSpec base = sweep_base();
  const PerturbationSpec pert = sweep_pert();
  SweepOptions opt;
  opt.members = 4;
  opt.horizon = 30.0;
  const std::uint64_t key = product_key(base, pert, opt);
  const CheckpointTrip ref = checkpoint_trip(base);

  // in_meta: the field is stored in the meta section. Ignitions are not;
  // they live on in psi (lit) and in the pending section (delayed).
  struct Case {
    const char* field;
    bool in_meta;
    serve::ScenarioSpec spec;
  };
  std::vector<Case> cases;
  const auto perturb = [&](const char* field,
                           bool in_meta = true) -> serve::ScenarioSpec& {
    cases.push_back({field, in_meta, base});
    return cases.back().spec;
  };
  perturb("nx").nx = 23;
  perturb("ny").ny = 19;
  perturb("dx").dx = 6.5;
  perturb("dy").dy = 5.5;
  perturb("dt").dt = 0.25;
  perturb("fuel_category").fuel_category = fire::kFuelTallGrass;
  perturb("wind_u").wind_u = 2.5;
  perturb("wind_v").wind_v = -0.5;
  perturb("wind_jitter").wind_jitter = 0.9;
  perturb("seed").seed = base.seed | (std::uint64_t{1} << 40);  // high half
  perturb("fuel_moisture_scale").fuel_moisture_scale = 1.3;
  perturb("burn_time_scale").burn_time_scale = 0.6;
  perturb("fire.scheme").fire.scheme = levelset::UpwindScheme::kStandardGodunov;
  perturb("fire.use_heun").fire.use_heun = false;
  perturb("fire.reinit_interval").fire.reinit_interval = 5;
  perturb("fire.min_fuel_frac").fire.min_fuel_frac = 0.05;
  perturb("ignition moved", false).ignitions = {
      levelset::Ignition{levelset::CircleIgnition{66.0, 60.0, 15.0, 0.0}}};
  perturb("ignition delayed", false)
      .ignitions.push_back(levelset::Ignition{
          levelset::CircleIgnition{100.0, 100.0, 10.0, 20.0}});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    EXPECT_NE(product_key(c.spec, pert, opt), key);
    const CheckpointTrip trip = checkpoint_trip(c.spec);  // admit validates
    if (c.in_meta) {
      EXPECT_FALSE(trip.written.at("meta") == ref.written.at("meta"));
    } else {
      EXPECT_FALSE(trip.written.at("psi") == ref.written.at("psi") &&
                   trip.written.at("pending") == ref.written.at("pending"));
    }
    EXPECT_TRUE(trip.rewritten == trip.written);
    EXPECT_TRUE(trip.resumed.psi == trip.uninterrupted.psi);
    EXPECT_TRUE(trip.resumed.tig == trip.uninterrupted.tig);
  }

  // realtime_speedup only scores deadlines: the product does not depend on
  // it, but a restored scenario keeps it.
  serve::ScenarioSpec paced = base;
  paced.realtime_speedup = 4.0;
  EXPECT_EQ(product_key(paced, pert, opt), key);
  const CheckpointTrip trip = checkpoint_trip(paced);
  EXPECT_FALSE(trip.written.at("meta") == ref.written.at("meta"));
  EXPECT_TRUE(trip.rewritten == trip.written);
  std::filesystem::remove_all(kSchemaTmp);
}

TEST(Sweep, DriverRejectsDegenerateOptions) {
  SweepOptions opt;
  opt.members = 0;
  EXPECT_THROW(SweepDriver(sweep_base(), sweep_pert(), opt),
               std::invalid_argument);
  opt.members = 4;
  opt.horizon = 0;
  EXPECT_THROW(SweepDriver(sweep_base(), sweep_pert(), opt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The batched sweep against its oracle: each member's spec advanced alone on
// a ScenarioServer (the scalar FireModel), reduced by the same accumulator.

TEST(Sweep, BatchedMatchesPerMemberServerRuns) {
  serve::ScenarioSpec base = sweep_base(5);  // gusts on, reinit every 8 steps
  base.burn_time_scale = 0.1;  // tau 2 s: cells burn out inside the horizon
  base.ignitions.push_back(levelset::Ignition{
      levelset::CircleIgnition{90.0, 84.0, 8.0, 3.2}});  // lights at t = 3.5
  const PerturbationSpec pert = sweep_pert();  // burn_time_sigma > 0
  SweepOptions opt;
  opt.members = 13;    // not a multiple of the batch's 4-lane pad
  opt.horizon = 10.3;  // 20 steps of 0.5 s, one of 0.3 s; reinit at 8, 16

  serve::ServerOptions sopt;
  sopt.threads = 1;
  sopt.inline_cell_steps = 1L << 40;
  serve::ScenarioServer server(sopt);
  BurnProbabilityAccumulator acc(base.nx, base.ny, base.dx, base.dy,
                                 opt.members, opt.horizon);
  for (int k = 0; k < opt.members; ++k) {
    const serve::ScenarioId id = server.admit(perturb_member(base, pert, k));
    server.request_advance(id, opt.horizon);
    server.wait(id);
    ASSERT_FALSE(server.status(id).failed) << server.error(id);
    acc.add_member(k, server.state(id).tig);
  }
  const BurnProbabilityGrid want = acc.finalize();

  const BurnProbabilityGrid got = SweepDriver(base, pert, opt).run();
  EXPECT_TRUE(got.burned_count == want.burned_count);
  EXPECT_TRUE(got.probability == want.probability);
  EXPECT_TRUE(got.arrivals == want.arrivals);

  // The delayed ignition lit inside the batch, at its first step boundary.
  int lit_late = 0;
  for (const double t : got.arrivals)
    if (t == 3.5) ++lit_late;
  EXPECT_GT(lit_late, 0);
}

// ---------------------------------------------------------------------------
// The sweep determinism pin from the acceptance criteria: a K=64 sweep is
// bitwise-reproducible across OpenMP widths (1 and 4).

TEST(Sweep, BitwiseReproducibleAcrossPoolWidths) {
  const serve::ScenarioSpec base = sweep_base(42);
  const PerturbationSpec pert = sweep_pert();

  SweepOptions solo;
  solo.members = 64;
  solo.horizon = 10.0;
  solo.threads = 1;

  SweepOptions wide = solo;
  wide.threads = 4;

  const BurnProbabilityGrid ga = SweepDriver(base, pert, solo).run();
  const BurnProbabilityGrid gb = SweepDriver(base, pert, wide).run();

  EXPECT_EQ(ga.key, gb.key);
  EXPECT_TRUE(ga.burned_count == gb.burned_count);
  EXPECT_TRUE(ga.probability == gb.probability);
  EXPECT_TRUE(ga.arrivals == gb.arrivals);

  // The sweep did something: the union burn is wider than any single run.
  EXPECT_GT(ga.expected_burned_area(), 0.0);
  int fractional = 0;
  for (const double p : ga.probability)
    if (p > 0.0 && p < 1.0) ++fractional;
  EXPECT_GT(fractional, 0) << "perturbations produced no spread in outcomes";
}

// ---------------------------------------------------------------------------
// The product cache: repeats are served without re-simulation, concurrent
// first requests share one sweep, and a full cache keeps a new product
// only if it is fetched more often than the least recently fetched one.

TEST(Cache, ServesRepeatsWithoutResimulation) {
  const serve::ScenarioSpec base = sweep_base();
  const PerturbationSpec pert = sweep_pert();
  SweepOptions opt;
  opt.members = 8;
  opt.horizon = 4.0;
  opt.threads = 1;  // the product is width-independent; short TSan runs

  ProductCache cache(2);
  const auto g1 = cache.fetch(base, pert, opt);
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.sweeps_run(), 1);

  const auto g2 = cache.fetch(base, pert, opt);
  EXPECT_EQ(g2.get(), g1.get());  // the very same product object
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.sweeps_run(), 1);

  // Execution knobs don't key: a different width is still a hit.
  SweepOptions exec = opt;
  exec.threads = 3;
  EXPECT_EQ(cache.fetch(base, pert, exec).get(), g1.get());
  EXPECT_EQ(cache.sweeps_run(), 1);

  // Two more products through a capacity-2 cache: A(refreshed), B, C.
  SweepOptions hb = opt, hc = opt;
  hb.horizon = 5.0;
  hc.horizon = 6.0;
  (void)cache.fetch(base, pert, hb);
  EXPECT_EQ(cache.size(), 2);
  (void)cache.fetch(base, pert, opt);  // refresh A's recency
  // C, fetched once, is no more popular than the least recently fetched B:
  // it is served but not kept, and B stays.
  const auto gc = cache.fetch(base, pert, hc);
  ASSERT_NE(gc, nullptr);
  EXPECT_EQ(gc->key, product_key(base, pert, hc));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.sweeps_run(), 3);
  EXPECT_EQ(cache.rejections(), 1);
  EXPECT_EQ(cache.evictions(), 0);

  (void)cache.fetch(base, pert, opt);  // A is still cached
  EXPECT_EQ(cache.sweeps_run(), 3);
  (void)cache.fetch(base, pert, hb);  // so is B
  EXPECT_EQ(cache.sweeps_run(), 3);

  // Products not kept stay alive for their clients.
  EXPECT_GE(g1->members, 8);
  EXPECT_GE(gc->members, 8);
}

TEST(Cache, SingleFlightDeduplicatesConcurrentMisses) {
  // Four clients released together by a latch fetch one product from a
  // fresh cache. However they interleave, they share one sweep: a client
  // that arrives after the leader finished gets a hit on the same grid.
  // Rounds repeat (bounded) until one has all four miss together and join
  // the one sweep in flight.
  const serve::ScenarioSpec base = sweep_base(11);
  const PerturbationSpec pert = sweep_pert();
  SweepOptions opt;
  opt.members = 8;
  opt.horizon = 4.0;
  opt.threads = 1;  // the product is width-independent; short TSan runs

  bool all_joined = false;
  for (int round = 0; round < 50 && !all_joined; ++round) {
    ProductCache cache(4);
    std::vector<std::shared_ptr<const BurnProbabilityGrid>> got(4);
    std::latch start(static_cast<std::ptrdiff_t>(got.size()));
    std::vector<std::thread> clients;
    clients.reserve(got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      clients.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = cache.fetch(base, pert, opt);
      });
    for (std::thread& t : clients) t.join();

    ASSERT_EQ(cache.sweeps_run(), 1) << "concurrent misses must share one sweep";
    ASSERT_EQ(cache.misses() + cache.hits(), 4);
    for (const auto& g : got) {
      ASSERT_NE(g, nullptr);
      ASSERT_EQ(g.get(), got[0].get());
    }
    all_joined = cache.misses() == 4;
  }
  EXPECT_TRUE(all_joined) << "no round had four concurrent misses share a sweep";
}

TEST(Cache, EnvCapacityOverride) {
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "5", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), 5);
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "0", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), 1);  // clamped
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "3000000000", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), INT_MAX);  // clamped, not wrapped
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "99999999999999999999", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), INT_MAX);  // ERANGE: clamped
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "-99999999999999999999", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), 1);
  ASSERT_EQ(setenv("WFIRE_RISK_CACHE", "nonsense", 1), 0);
  EXPECT_EQ(ProductCache::env_capacity(), 32);  // default on parse failure
  ASSERT_EQ(unsetenv("WFIRE_RISK_CACHE"), 0);
  EXPECT_EQ(ProductCache::env_capacity(), 32);
}

TEST(Cache, HotSetSurvivesBurstOfOneOffProducts) {
  // Scan resistance: a full aging window of one-off products passes
  // through a full cache without displacing the products fetched before
  // (least-recently-fetched eviction alone would have dropped all three).
  constexpr int kCap = 3;
  constexpr int kBurst = 10 * kCap;
  ProductCache cache(kCap);
  std::vector<std::shared_ptr<const BurnProbabilityGrid>> hot;
  for (int id = 0; id < kCap; ++id) hot.push_back(fetch_tiny(cache, id));
  for (int id = 0; id < kCap; ++id)
    ASSERT_EQ(fetch_tiny(cache, id).get(), hot[static_cast<std::size_t>(id)].get());

  for (int i = 0; i < kBurst; ++i) {
    const TinyProduct p(1000 + i);
    const auto g = cache.fetch(p.base, p.pert, p.opt);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->key, p.key());  // served, though not kept
  }
  EXPECT_EQ(cache.rejections(), kBurst);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.size(), kCap);
  EXPECT_EQ(cache.sweeps_run(), kCap + kBurst);

  for (int id = 0; id < kCap; ++id)
    EXPECT_EQ(fetch_tiny(cache, id).get(), hot[static_cast<std::size_t>(id)].get());
  EXPECT_EQ(cache.sweeps_run(), kCap + kBurst);
}

TEST(Cache, AgingAdmitsANewlyHotProduct) {
  // Two products are fetched 100 times each, then go cold while a third
  // becomes hot. Halving the counts every 10 x capacity fetches bounds the
  // cold products' counts, so the newcomer is admitted within
  // 2 x 10 x capacity of its own fetches; without aging it would need
  // more than 100.
  constexpr int kCap = 2;
  ProductCache cache(kCap);
  for (int round = 0; round < 100; ++round) {
    (void)fetch_tiny(cache, 0);
    (void)fetch_tiny(cache, 1);
  }
  ASSERT_EQ(cache.sweeps_run(), 2);

  long fetches = 0;
  while (cache.evictions() == 0 && fetches < 100) {
    (void)fetch_tiny(cache, 2);
    ++fetches;
  }
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_GT(fetches, 1);  // one fetch does not displace a popular product
  EXPECT_LE(fetches, 2 * 10 * kCap);
  EXPECT_EQ(cache.rejections(), fetches - 1);
  EXPECT_EQ(cache.sweeps_run(), 2 + fetches);

  // The newcomer and the more recently fetched cold product are resident;
  // the least recently fetched one was evicted.
  (void)fetch_tiny(cache, 2);
  (void)fetch_tiny(cache, 1);
  EXPECT_EQ(cache.sweeps_run(), 2 + fetches);
  (void)fetch_tiny(cache, 0);
  EXPECT_EQ(cache.sweeps_run(), 3 + fetches);
  EXPECT_EQ(cache.size(), kCap);
}

TEST(Cache, FrequencyTableStaysBounded) {
  // 100 x capacity distinct one-off products: aging drops every count of 1,
  // so the table never reaches the documented 20 x capacity keys.
  constexpr int kCap = 2;
  ProductCache cache(kCap);
  int most = 0;
  for (int id = 0; id < 100 * kCap; ++id) {
    (void)fetch_tiny(cache, id);
    most = std::max(most, cache.counted_keys());
  }
  EXPECT_EQ(cache.sweeps_run(), 100 * kCap);
  EXPECT_GT(most, 0);
  EXPECT_LT(most, 20 * kCap);
  EXPECT_EQ(cache.size() + cache.evictions() + cache.rejections(),
            cache.sweeps_run());
}

TEST(Cache, ZipfReplayKeepsThePopularProducts) {
  // risk_products' traffic shape: Zipf(1.1) over 12 products through a
  // cache of 6, in a fixed seeded sequence. Keeping the six most popular
  // products would serve 0.814 of the fetches; least-recently-fetched
  // eviction alone keeps about 0.74 of them.
  constexpr int kCatalog = 12;
  constexpr int kCap = 6;
  constexpr int kFetches = 1000;
  const Zipf zipf(kCatalog, 1.1);
  util::Rng pick(1);
  ProductCache cache(kCap);
  while (cache.size() < kCap) (void)fetch_tiny(cache, zipf(pick));

  const long hits0 = cache.hits();
  for (int n = 0; n < kFetches; ++n) (void)fetch_tiny(cache, zipf(pick));
  const double hit_ratio =
      static_cast<double>(cache.hits() - hits0) / kFetches;
  EXPECT_GE(hit_ratio, 0.79);
  EXPECT_EQ(cache.size(), kCap);
}

TEST(Cache, ConcurrentZipfClientsKeepCountersConsistent) {
  // Four clients fetch Zipf-popular products through one small cache at
  // once: admission, eviction and aging run under contention (the TSan CI
  // job runs this). Every fetch is counted once, as a hit or a miss; every
  // miss ran a sweep or joined one in flight; every sweep's product was
  // kept (and may since have been evicted) or rejected.
  constexpr int kCap = 3;
  constexpr int kClients = 4;
  constexpr int kFetches = 60;
  const Zipf zipf(8, 1.1);
  ProductCache cache(kCap);
  std::atomic<int> wrong{0}, oversize{0};
  std::latch start(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      util::Rng pick = util::Rng::stream(5, static_cast<std::uint64_t>(c));
      start.arrive_and_wait();
      for (int n = 0; n < kFetches; ++n) {
        const TinyProduct p(static_cast<std::uint64_t>(zipf(pick)));
        const auto g = cache.fetch(p.base, p.pert, p.opt);
        if (g == nullptr || g->key != p.key()) ++wrong;
        if (cache.size() > kCap) ++oversize;
      }
    });
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(oversize.load(), 0);
  EXPECT_LE(cache.size(), kCap);
  EXPECT_EQ(cache.hits() + cache.misses(), kClients * kFetches);
  const long joins = cache.misses() - cache.sweeps_run();  // single-flight
  EXPECT_GE(joins, 0);
  EXPECT_EQ(cache.size() + cache.evictions() + cache.rejections(),
            cache.sweeps_run());
  EXPECT_LT(cache.counted_keys(), 20 * kCap);
}

// ---------------------------------------------------------------------------
// End-to-end skill: a sweep around a slightly-biased base spec reproduces a
// twin-experiment reference burn (the validation regime of the examples
// demo, here with a pass bar rather than golden pins).

TEST(Risk, SweepReproducesTwinTruthBurn) {
  // Hidden truth: the DataPool's fire advanced to the forecast horizon.
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  auto truth = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  truth->ignite(
      {levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  core::DataPoolOptions dopt;
  dopt.wind_u = 2.0;
  dopt.wind_v = 0.5;
  core::DataPool pool(std::move(truth), dopt, util::Rng(3));
  const double horizon = 60.0;
  (void)pool.observe_at(horizon);
  const util::Array2D<double>* ref = pool.truth_tig();
  ASSERT_NE(ref, nullptr);

  // Forecast: the analyst's spec has a wind bias; the sweep's spread covers
  // the truth anyway.
  serve::ScenarioSpec base;
  base.nx = 41;
  base.ny = 41;
  base.dx = base.dy = 6.0;
  base.dt = 0.5;
  base.wind_u = 2.3;  // biased vs the true 2.0
  base.wind_v = 0.3;  // biased vs the true 0.5
  base.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}};

  PerturbationSpec pert;
  pert.wind_speed_sigma = 0.4;
  pert.wind_dir_sigma = 0.15;
  pert.ignition_jitter = 3.0;
  pert.seed = 2026;

  SweepOptions opt;
  opt.members = 16;
  opt.horizon = horizon;
  SweepDriver driver(base, pert, opt);
  const BurnProbabilityGrid grid = driver.run();

  const Scores s = score(grid, 0.5, *ref, horizon);
  EXPECT_GE(s.f1, 0.8) << "precision " << s.precision << " recall "
                       << s.recall;
}
