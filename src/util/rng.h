// Deterministic random number generation: xoshiro256** seeded via SplitMix64,
// with uniform/normal draws. Every stochastic component of wfire (ensemble
// perturbations, observation noise, synthetic terrain) takes an explicit Rng
// so experiments are reproducible bit-for-bit given a seed.
#pragma once

#include <cstdint>

namespace wfire::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform in [0, 2^64).
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();

  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n);

  // Standard normal via the Marsaglia polar method (cached second deviate).
  double normal();

  // Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  // Derive an independent stream (e.g. one per ensemble member). Streams
  // seeded from distinct jumps of SplitMix64 are statistically independent.
  // Note spawn() advances *this*: the child depends on how many draws
  // preceded it. For order-independent derivation use stream().
  [[nodiscard]] Rng spawn();

  // Counter-based stream derivation: the sub-seed is a pure function of
  // (seed, stream_id), so stream k's draws are identical no matter how many
  // threads run, in what order streams are created, or what else was drawn
  // from other streams. This is what makes per-member ensemble forcing
  // reproducible across OMP_NUM_THREADS / pool sizes.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
  bool have_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace wfire::util
