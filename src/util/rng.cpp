#include "util/rng.h"

#include <cmath>

namespace wfire::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits mapped to [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  if (n == 0) return 0;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

double Rng::normal() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_ = v * f;
  have_cached_ = true;
  return u * f;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Two SplitMix64 rounds mix the counter into the seed; distinct ids give
  // well-separated sub-seeds without any shared sequencing state.
  std::uint64_t a = seed;
  std::uint64_t b = splitmix64(a) ^ stream_id;
  return Rng(splitmix64(b));
}

}  // namespace wfire::util
