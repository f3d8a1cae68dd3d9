// Unit tests for the util module: containers, RNG statistics, config
// parsing, image output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "util/array2d.h"
#include "util/array3d.h"
#include "util/config.h"
#include "util/image_io.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace wu = wfire::util;

TEST(Array2D, IndexingIsRowMajorInX) {
  wu::Array2D<double> a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[1], 2);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[3], 4);
}

TEST(Array2D, FillAndReductions) {
  wu::Array2D<double> a(4, 4, 2.5);
  EXPECT_DOUBLE_EQ(wu::sum(a), 40.0);
  a(3, 3) = -1.0;
  EXPECT_DOUBLE_EQ(wu::min_value(a), -1.0);
  EXPECT_DOUBLE_EQ(wu::max_value(a), 2.5);
}

TEST(Array2D, ClampedAccessExtendsEdges) {
  wu::Array2D<double> a(2, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(0, 1) = 3;
  a(1, 1) = 4;
  EXPECT_EQ(a.at_clamped(-1, 0), 1);
  EXPECT_EQ(a.at_clamped(5, 0), 2);
  EXPECT_EQ(a.at_clamped(0, -3), 1);
  EXPECT_EQ(a.at_clamped(1, 9), 4);
}

TEST(Array2D, EqualityAndShape) {
  wu::Array2D<double> a(3, 2, 1.0), b(3, 2, 1.0), c(2, 3, 1.0);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
  b(1, 1) = 2.0;
  EXPECT_FALSE(a == b);
}

TEST(Array2D, ThrowsOnNegativeDims) {
  EXPECT_THROW(wu::Array2D<double>(-1, 3), std::invalid_argument);
}

TEST(Array3D, IndexingOrder) {
  wu::Array3D<double> a(2, 2, 2);
  a(0, 0, 0) = 1;
  a(1, 0, 0) = 2;
  a(0, 1, 0) = 3;
  a(0, 0, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[1], 2);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[4], 4);
}

TEST(Array3D, MaxAbs) {
  wu::Array3D<double> a(2, 2, 2, 0.0);
  a(1, 1, 1) = -7.0;
  EXPECT_DOUBLE_EQ(wu::max_abs(a), 7.0);
}

TEST(Rng, DeterministicGivenSeed) {
  wu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  wu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  wu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  wu::Rng rng(11);
  int counts[5] = {0};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_int(5)];
  for (const int c : counts) {
    EXPECT_GT(c, draws / 5 - 600);
    EXPECT_LT(c, draws / 5 + 600);
  }
}

TEST(Rng, NormalMomentsMatch) {
  wu::Rng rng(3);
  const int n = 200000;
  double mean = 0, var = 0;
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.normal();
    mean += x;
  }
  mean /= n;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= n - 1;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Config, ParsesArgsAndTypes) {
  const char* argv[] = {"prog", "nx=64", "dt=0.25", "name=fire"};
  const wu::Config cfg = wu::Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_int("nx", 0), 64);
  EXPECT_DOUBLE_EQ(cfg.get_double("dt", 0), 0.25);
  EXPECT_EQ(cfg.get_string("name", ""), "fire");
  EXPECT_EQ(cfg.get_int("missing", 17), 17);
}

TEST(Config, ThrowsOnBadValue) {
  const char* argv[] = {"prog", "nx=abc"};
  const wu::Config cfg = wu::Config::from_args(2, argv);
  EXPECT_THROW((void)cfg.get_int("nx", 0), std::invalid_argument);
  const char* bad[] = {"p", "noeq"};
  EXPECT_THROW((void)wu::Config::from_args(2, bad), std::invalid_argument);
}

TEST(ImageIo, WritesPgmAndPpm) {
  wu::Array2D<double> img(8, 4, 0.5);
  const std::string pgm = "/tmp/wfire_test.pgm";
  const std::string ppm = "/tmp/wfire_test.ppm";
  wu::write_pgm(pgm, img, 0.0, 1.0);
  wu::write_false_color(ppm, img, 0.0, 1.0);
  EXPECT_GT(std::filesystem::file_size(pgm), 8u * 4u);
  EXPECT_GT(std::filesystem::file_size(ppm), 3u * 8u * 4u);
  std::filesystem::remove(pgm);
  std::filesystem::remove(ppm);
}

TEST(ImageIo, ColormapEndpoints) {
  const wu::Rgb lo = wu::colormap_hot(0.0);
  const wu::Rgb hi = wu::colormap_hot(1.0);
  EXPECT_EQ(lo.r, 0);
  EXPECT_EQ(lo.g, 0);
  EXPECT_EQ(lo.b, 0);
  EXPECT_EQ(hi.r, 255);
  EXPECT_EQ(hi.g, 255);
  EXPECT_EQ(hi.b, 255);
}

TEST(Stopwatch, MeasuresElapsed) {
  wu::Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_TRUE(std::isfinite(sink));  // keep the busy loop alive
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}
