// Observation framework tests: state-file round trips and in-place
// subvector replacement (the paper's disk-file exchange), the weather
// station operator (biquadratic sampling, fireline check, temperature
// nudge), and the file-based observation function.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "obs/obs_function.h"
#include "obs/statefile.h"
#include "obs/weather_station.h"
#include "util/omp_compat.h"
#include "util/rng.h"

using namespace wfire;
using namespace wfire::obs;

namespace {
const char* kTmp = "/tmp/wfire_obs_test";

struct TmpDir {
  TmpDir() { std::filesystem::create_directories(kTmp); }
  ~TmpDir() { std::filesystem::remove_all(kTmp); }
};
}  // namespace

TEST(StateFile, RoundTripsSections) {
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/state.wfst";
  Sections in;
  in["psi"] = {1.0, -2.0, 3.5};
  in["tig"] = {0.5, 1e30};
  in["time"] = {42.0};
  StateFile::write(path, in);

  const Sections out = StateFile::read(path);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.at("psi"), in["psi"]);
  EXPECT_EQ(out.at("tig"), in["tig"]);
  EXPECT_EQ(out.at("time"), in["time"]);
}

TEST(StateFile, ListSectionsWithoutPayload) {
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/state.wfst";
  StateFile::write(path, {{"a", {1, 2, 3}}, {"bb", {4}}});
  const auto sections = StateFile::list_sections(path);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].first, "a");
  EXPECT_EQ(sections[0].second, 3u);
  EXPECT_EQ(sections[1].first, "bb");
  EXPECT_EQ(sections[1].second, 1u);
}

TEST(StateFile, ExtractAndReplaceSubvectorInPlace) {
  // The paper: "individual subvectors corresponding to the most common
  // variables are extracted or replaced in the files."
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/state.wfst";
  StateFile::write(path, {{"psi", {1, 2, 3}}, {"tig", {7, 8, 9}}});

  const auto psi = StateFile::extract(path, "psi");
  EXPECT_EQ(psi, (std::vector<double>{1, 2, 3}));

  const std::vector<double> new_tig{70, 80, 90};
  StateFile::replace(path, "tig", new_tig);
  EXPECT_EQ(StateFile::extract(path, "tig"), new_tig);
  // Other sections untouched.
  EXPECT_EQ(StateFile::extract(path, "psi"), (std::vector<double>{1, 2, 3}));
}

TEST(StateFile, ErrorsAreDiagnosed) {
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/state.wfst";
  StateFile::write(path, {{"psi", {1, 2}}});
  EXPECT_THROW(StateFile::extract(path, "missing"), std::runtime_error);
  EXPECT_THROW(StateFile::replace(path, "psi", std::vector<double>{1, 2, 3}),
               std::runtime_error);
  EXPECT_THROW(StateFile::read("/nonexistent/file"), std::runtime_error);
  // Corrupt magic.
  const std::string bad = std::string(kTmp) + "/bad.wfst";
  { std::ofstream out(bad, std::ios::binary); out << "NOPE data"; }
  EXPECT_THROW(StateFile::read(bad), std::runtime_error);
}

TEST(StateFile, WriteLeavesNoTempFile) {
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/atomic.wfst";
  StateFile::write(path, {{"psi", {1, 2, 3}}});
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(StateFile, WriteReplacesStaleTempFromCrashedWriter) {
  // A process killed between opening the temp and the rename leaves
  // path+".tmp" behind; the next successful write must simply overwrite it
  // and still publish atomically.
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/stale.wfst";
  {
    std::ofstream garbage(path + ".tmp", std::ios::binary);
    garbage << "half a checkpoint";
  }
  StateFile::write(path, {{"tig", {4, 5}}});
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(StateFile::extract(path, "tig"), (std::vector<double>{4, 5}));
}

TEST(StateFile, TruncatedFileFailsCleanly) {
  // Simulated torn write at several offsets: the reader must throw a clean
  // runtime_error at every cut, never return short data or crash.
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/torn.wfst";
  StateFile::write(path, {{"psi", {1, 2, 3, 4}}, {"tig", {5, 6}}});
  const auto full = std::filesystem::file_size(path);
  for (const double frac : {0.1, 0.4, 0.7, 0.95}) {
    const auto cut = static_cast<std::uintmax_t>(frac * full);
    const std::string torn = std::string(kTmp) + "/cut.wfst";
    std::filesystem::copy_file(path, torn,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(torn, cut);
    EXPECT_THROW(StateFile::read(torn), std::runtime_error)
        << "truncated at " << cut << " of " << full << " bytes";
  }
  // The untouched original still reads.
  EXPECT_EQ(StateFile::read(path).size(), 2u);
}

TEST(StateFile, CorruptSectionCountFailsCleanly) {
  // A header whose u64 double count claims 2^60 values (8 EiB) must be
  // rejected against the file size before anything is allocated or skipped,
  // by every reader.
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/huge.wfst";
  StateFile::write(path, {{"psi", {1, 2, 3}}, {"tig", {4}}});
  {
    // Layout: magic(4) version(4) nsections(4) | name_len(4) "psi"(3) count(8)
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(4 + 4 + 4 + 4 + 3);
    const std::uint64_t huge = std::uint64_t{1} << 60;
    io.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  EXPECT_THROW(StateFile::read(path), std::runtime_error);
  EXPECT_THROW(StateFile::list_sections(path), std::runtime_error);
  EXPECT_THROW(StateFile::extract(path, "psi"), std::runtime_error);
  EXPECT_THROW(StateFile::extract(path, "tig"), std::runtime_error);
  EXPECT_THROW(StateFile::replace(path, "tig", std::vector<double>{5}),
               std::runtime_error);
}

TEST(StateFile, TempPathPredicate) {
  EXPECT_TRUE(StateFile::is_temp_path("/a/b/state.wfst.tmp"));
  EXPECT_FALSE(StateFile::is_temp_path("/a/b/state.wfst"));
  EXPECT_FALSE(StateFile::is_temp_path("tmp"));
}

TEST(StateFile, FireStateRoundTrip) {
  TmpDir tmp;
  const std::string path = std::string(kTmp) + "/fire.wfst";
  fire::FireState s;
  s.psi = util::Array2D<double>(5, 4, 2.0);
  s.tig = util::Array2D<double>(5, 4, fire::kNotIgnited);
  s.psi(2, 2) = -1.0;
  s.tig(2, 2) = 33.0;
  s.time = 50.0;
  write_fire_state(path, s);
  const fire::FireState r = read_fire_state(path, 5, 4);
  EXPECT_TRUE(r.psi == s.psi);
  EXPECT_DOUBLE_EQ(r.time, 50.0);
  EXPECT_DOUBLE_EQ(r.tig(2, 2), 33.0);
  EXPECT_THROW(read_fire_state(path, 4, 4), std::runtime_error);
}

TEST(WeatherStation, SamplesFieldsBiquadratically) {
  const grid::Grid2D g(21, 21, 10.0, 10.0);
  // Quadratic temperature field: biquadratic sampling is exact.
  util::Array2D<double> T(21, 21), u(21, 21, 2.0), v(21, 21, -1.0),
      h(21, 21, 0.4), psi(21, 21, 5.0);
  for (int j = 0; j < 21; ++j)
    for (int i = 0; i < 21; ++i) {
      const double x = g.x(i), y = g.y(j);
      T(i, j) = 280.0 + 0.01 * x + 0.002 * x * y / 100.0;
    }
  WeatherStationOperator op(g);
  StationReport rep;
  rep.x = 57.0;
  rep.y = 123.0;
  rep.temperature = 290.0;
  const StationComparison cmp = op.compare(rep, T, u, v, h, psi);
  EXPECT_TRUE(cmp.inside);
  const double exact = 280.0 + 0.01 * 57.0 + 0.002 * 57.0 * 123.0 / 100.0;
  EXPECT_NEAR(cmp.model_temperature, exact, 1e-9);
  EXPECT_NEAR(cmp.d_temperature, 290.0 - exact, 1e-9);
  EXPECT_DOUBLE_EQ(cmp.model_wind_u, 2.0);
  EXPECT_FALSE(cmp.fireline_nearby);
}

TEST(WeatherStation, DetectsFirelineNearby) {
  const grid::Grid2D g(21, 21, 10.0, 10.0);
  util::Array2D<double> T(21, 21, 300.0), u(21, 21, 0.0), v(21, 21, 0.0),
      h(21, 21, 0.3), psi(21, 21, 5.0);
  psi(11, 11) = -1.0;  // burning node
  WeatherStationOperator op(g);
  StationReport near_fire;
  near_fire.x = 105.0;  // cell (10, ...) neighboring the burning node
  near_fire.y = 105.0;
  EXPECT_TRUE(op.compare(near_fire, T, u, v, h, psi).fireline_nearby);
  StationReport far;
  far.x = 15.0;
  far.y = 15.0;
  EXPECT_FALSE(op.compare(far, T, u, v, h, psi).fireline_nearby);
}

TEST(WeatherStation, OutsideDomainIsFlagged) {
  const grid::Grid2D g(11, 11, 10.0, 10.0);
  util::Array2D<double> f(11, 11, 0.0);
  WeatherStationOperator op(g);
  StationReport rep;
  rep.x = -50.0;
  rep.y = 5.0;
  const StationComparison cmp = op.compare(rep, f, f, f, f, f);
  EXPECT_FALSE(cmp.inside);
}

TEST(WeatherStation, NudgeMovesModelTowardObservation) {
  const grid::Grid2D g(21, 21, 10.0, 10.0);
  util::Array2D<double> T(21, 21, 300.0), zero(21, 21, 0.0),
      psi(21, 21, 5.0);
  WeatherStationOperator op(g);
  StationReport rep;
  rep.x = 103.0;
  rep.y = 98.0;
  rep.temperature = 320.0;
  const StationComparison before = op.compare(rep, T, zero, zero, zero, psi);
  op.nudge_temperature(rep, before, 1.0, T);
  const StationComparison after = op.compare(rep, T, zero, zero, zero, psi);
  // Full-weight nudge reproduces the observation at the station.
  EXPECT_NEAR(after.model_temperature, 320.0, 1e-6);
  // Distant nodes untouched.
  EXPECT_DOUBLE_EQ(T(0, 0), 300.0);
  EXPECT_DOUBLE_EQ(T(20, 20), 300.0);
}

TEST(ObsFunction, HeatFluxImageMatchesFuelDecay) {
  const fire::FuelMap fuel = fire::uniform_fuel(4, 4, fire::kFuelShortGrass);
  const fire::FuelCategory& cat = fire::fuel_catalog()[fire::kFuelShortGrass];
  util::Array2D<double> tig(4, 4, fire::kNotIgnited);
  tig(1, 1) = 0.0;
  tig(2, 2) = 10.0;
  const util::Array2D<double> img = heat_flux_image(fuel, tig, 20.0);
  const auto expected = [&](double age) {
    return cat.w0 * cat.h * (1.0 - cat.latent_fraction) *
           std::exp(-age / cat.tau) / cat.tau;
  };
  EXPECT_NEAR(img(1, 1), expected(20.0), 1e-9);
  EXPECT_NEAR(img(2, 2), expected(10.0), 1e-9);
  EXPECT_DOUBLE_EQ(img(0, 0), 0.0);
  // Younger burn is hotter.
  EXPECT_GT(img(2, 2), img(1, 1));
}

TEST(ObsFunction, Median3x3RemovesSaltNoise) {
  // The burning mask is the 3x3 median of the image above the threshold.
  const grid::Grid2D g(9, 9, 6.0, 6.0);
  const double far = g.width() + g.height();
  util::Array2D<double> img(9, 9, 0.0);
  img(4, 4) = 1e6;  // isolated hot pixel: dropped, nothing burns
  const util::Array2D<double> clean = front_distance_field(img, g, 5000.0);
  EXPECT_DOUBLE_EQ(clean(4, 4), far);
  EXPECT_DOUBLE_EQ(wfire::util::min_value(clean), far);
  // A solid 3x3 block survives (its center has 9 hot neighbors).
  util::Array2D<double> block(9, 9, 0.0);
  for (int j = 3; j <= 5; ++j)
    for (int i = 3; i <= 5; ++i) block(i, j) = 1e6;
  EXPECT_LT(front_distance_field(block, g, 5000.0)(4, 4), 0.0);

  // On noise straddling the threshold, a node burns (reads negative)
  // exactly where the median of its clamped 3x3 window, found by sorting
  // here, exceeds the threshold.
  const grid::Grid2D h(23, 17, 6.0, 6.0);
  wfire::util::Rng rng(3);
  util::Array2D<double> noise(h.nx, h.ny);
  for (double& v : noise) v = rng.uniform(0.0, 10000.0);
  const util::Array2D<double> dist = front_distance_field(noise, h, 5000.0);
  for (int j = 0; j < h.ny; ++j)
    for (int i = 0; i < h.nx; ++i) {
      std::vector<double> window;
      for (int b = -1; b <= 1; ++b)
        for (int a = -1; a <= 1; ++a)
          window.push_back(noise.at_clamped(i + a, j + b));
      std::nth_element(window.begin(), window.begin() + 4, window.end());
      EXPECT_EQ(dist(i, j) < 0, window[4] > 5000.0) << i << "," << j;
    }
}

TEST(ObsFunction, FrontDistanceFieldSignsAndFar) {
  const grid::Grid2D g(21, 21, 6.0, 6.0);
  util::Array2D<double> flux(21, 21, 0.0);
  // A 5x5 hot block around (10, 10).
  for (int j = 8; j <= 12; ++j)
    for (int i = 8; i <= 12; ++i) flux(i, j) = 1e5;
  const util::Array2D<double> dist = front_distance_field(flux, g, 5000.0);
  EXPECT_LT(dist(10, 10), 0.0);   // inside the band
  EXPECT_GT(dist(0, 0), 30.0);    // far corner is far
  // Distance grows monotonically moving away from the band along a row.
  EXPECT_LT(dist(13, 10), dist(16, 10));
  EXPECT_LT(dist(16, 10), dist(19, 10));

  // No burning anywhere: the +far sentinel everywhere.
  util::Array2D<double> cold(21, 21, 0.0);
  const util::Array2D<double> far = front_distance_field(cold, g, 5000.0);
  EXPECT_GT(wfire::util::min_value(far), 100.0);
}

TEST(ObsFunction, FrontDistanceRobustToSaltNoise) {
  // Scattered single-pixel noise above the threshold must not punch wells
  // into the distance transform (the denoise step).
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  util::Array2D<double> flux(41, 41, 0.0);
  for (int j = 18; j <= 22; ++j)
    for (int i = 18; i <= 22; ++i) flux(i, j) = 1e5;
  util::Array2D<double> noisy = flux;
  wfire::util::Rng rng(5);
  for (int s = 0; s < 12; ++s)
    noisy(static_cast<int>(rng.uniform_int(41)),
          static_cast<int>(rng.uniform_int(41))) += 5.0e4;
  const util::Array2D<double> clean_d = front_distance_field(flux, g, 5000.0);
  const util::Array2D<double> noisy_d = front_distance_field(noisy, g, 5000.0);
  double max_diff = 0;
  for (int j = 0; j < 41; ++j)
    for (int i = 0; i < 41; ++i)
      max_diff = std::max(max_diff, std::abs(clean_d(i, j) - noisy_d(i, j)));
  EXPECT_LT(max_diff, 1.0);  // transform essentially unchanged
}

TEST(ObsFunction, BatchedDistanceMatchesScalar) {
  // 26 images (the cycle's 25 members plus the data image): hot blocks of
  // varying place and size under salt noise, one cold image, one image hot
  // everywhere, and one hot only along the domain edge.
  const grid::Grid2D g(41, 33, 6.0, 6.0);
  wfire::util::Rng rng(11);
  std::vector<util::Array2D<double>> flux;
  for (int l = 0; l < 26; ++l) {
    util::Array2D<double> f(g.nx, g.ny, 0.0);
    if (l == 7) {
      f.fill(1e5);
    } else if (l == 11) {
      for (int j = 0; j < g.ny; ++j) f(0, j) = f(1, j) = 1e5;
    } else if (l != 3) {
      const int i0 = 5 + l % 20, j0 = 4 + (3 * l) % 18, w = 2 + l % 6;
      for (int j = j0; j < std::min(j0 + w, g.ny); ++j)
        for (int i = i0; i < std::min(i0 + w + 1, g.nx); ++i) f(i, j) = 2e4;
      for (int s = 0; s < 10; ++s)
        f(static_cast<int>(rng.uniform_int(g.nx)),
          static_cast<int>(rng.uniform_int(g.ny))) += 5.0e4;
    }
    flux.push_back(std::move(f));
  }
  for (const int width : {1, 3}) {
    std::vector<const util::Array2D<double>*> in;
    std::vector<util::Array2D<double>> got(flux.size());
    std::vector<util::Array2D<double>*> out;
    for (std::size_t l = 0; l < flux.size(); ++l) {
      in.push_back(&flux[l]);
      out.push_back(&got[l]);
    }
    DistanceScratch scratch;
    {
      wfire::util::ScopedOmpNumThreads omp(width);
      front_distance_fields(in, g, 5000.0, out, scratch);
    }
    for (std::size_t l = 0; l < flux.size(); ++l) {
      const util::Array2D<double> want = front_distance_field(flux[l], g, 5000.0);
      ASSERT_TRUE(got[l] == want) << "image " << l << " width " << width;
    }
  }
  // The cold image keeps the +far sentinel.
  EXPECT_GT(wfire::util::min_value(front_distance_field(flux[3], g, 5000.0)),
            100.0);
}

TEST(ObsFunction, FileBasedPipelineMatchesInMemory) {
  TmpDir tmp;
  const grid::Grid2D g(11, 11, 6.0, 6.0);
  fire::FireModel model(g, fire::uniform_fuel(g.nx, g.ny,
                                              fire::kFuelShortGrass),
                        fire::terrain_flat(g));
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{30.0, 30.0, 12.0, 0.0}}});
  for (int s = 0; s < 20; ++s) model.step_uniform_wind(0.5, 2.0, 0.0);

  const std::string state_path = std::string(kTmp) + "/m0.wfst";
  const std::string synth_path = std::string(kTmp) + "/m0_synth.wfst";
  write_fire_state(state_path, model.state());
  const util::Array2D<double> from_file = observation_function_file(
      state_path, synth_path, model.fuel(), g.nx, g.ny);
  const util::Array2D<double> in_memory =
      heat_flux_image(model.fuel(), model.state().tig, model.state().time);
  EXPECT_TRUE(from_file == in_memory);

  // The synthetic-data file holds the same image.
  const auto synth = StateFile::extract(synth_path, "heat_flux");
  ASSERT_EQ(synth.size(), in_memory.size());
  for (std::size_t i = 0; i < synth.size(); ++i)
    EXPECT_DOUBLE_EQ(synth[i], in_memory.data()[i]);
}
