#include "serve/spec.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "fire/terrain.h"

namespace wfire::serve {

namespace {

// What a field admits; each test fails a NaN.
enum class Rule {
  kInteger,      // an integer in [lo, hi]: counts, enum indices, bools
  kFinite,       // any finite value
  kPositive,     // finite and > 0
  kNonNegative,  // finite and >= 0
  kFraction,     // in [0, 1)
  kIgnitions,    // each shape passes levelset::validate(); not in meta
};

struct Field {
  const char* name;
  std::size_t slot;        // checkpoint meta slot
  Rule rule;
  double lo = 0, hi = 0;   // kInteger bounds
  bool keyed = true;       // folded into the product key
};

using Ignitions = std::vector<levelset::Ignition>;
template <class T>
constexpr bool kIsU64 = std::is_same_v<std::decay_t<T>, std::uint64_t>;
template <class T>
constexpr bool kIsIgnitions = std::is_same_v<std::decay_t<T>, Ignitions>;

// The field table: one row per trajectory field, in ScenarioSpec
// declaration order (the product key's fold order), at its checkpoint v2
// meta slot. The server owns slots 0 and 13-15.
template <class Spec, class Visit>
void for_each_field(Spec& s, Visit&& visit) {
  constexpr double kIntMax = std::numeric_limits<int>::max();
  constexpr double kLastScheme =
      static_cast<int>(levelset::UpwindScheme::kCentral);
  const double last_fuel = fire::fuel_catalog().size() - 1.0;
  const Rule kInt = Rule::kInteger, kPos = Rule::kPositive,
             kNonNeg = Rule::kNonNegative;
  visit(Field{"nx", 1, kInt, 2, kIntMax}, s.nx);
  visit(Field{"ny", 2, kInt, 2, kIntMax}, s.ny);
  visit(Field{"dx", 3, kPos}, s.dx);
  visit(Field{"dy", 4, kPos}, s.dy);
  visit(Field{"dt", 5, kPos}, s.dt);
  visit(Field{"fuel_category", 6, kInt, 0, last_fuel}, s.fuel_category);
  visit(Field{"wind_u", 7, Rule::kFinite}, s.wind_u);
  visit(Field{"wind_v", 8, Rule::kFinite}, s.wind_v);
  visit(Field{"wind_jitter", 9, kNonNeg}, s.wind_jitter);
  visit(Field{"seed", 10, kInt, 0, 4294967295.0}, s.seed);  // halves: 10, 11
  visit(Field{"fuel_moisture_scale", 20, kPos}, s.fuel_moisture_scale);
  visit(Field{"burn_time_scale", 21, kPos}, s.burn_time_scale);
  visit(Field{"realtime_speedup", 12, kNonNeg, 0, 0, /*keyed=*/false},
        s.realtime_speedup);
  visit(Field{"ignitions", 0, Rule::kIgnitions}, s.ignitions);  // no slot
  visit(Field{"fire.scheme", 19, kInt, 0, kLastScheme}, s.fire.scheme);
  visit(Field{"fire.use_heun", 17, kInt, 0, 1}, s.fire.use_heun);
  visit(Field{"fire.reinit_interval", 16, kInt, 0, kIntMax},
        s.fire.reinit_interval);
  visit(Field{"fire.min_fuel_frac", 18, Rule::kFraction},
        s.fire.min_fuel_frac);
}

bool admits(const Field& f, double v) {
  switch (f.rule) {
    case Rule::kInteger: return is_integer_in(v, f.lo, f.hi);
    case Rule::kFinite: return std::isfinite(v);
    case Rule::kPositive: return std::isfinite(v) && v > 0;
    case Rule::kNonNegative: return std::isfinite(v) && v >= 0;
    case Rule::kFraction: return v >= 0 && v < 1;
    case Rule::kIgnitions: break;
  }
  return false;
}

// A scalar field's value as it is checked and stored in a meta slot.
template <class T>
double to_slot(T v) {
  if constexpr (std::is_enum_v<T>) return static_cast<int>(v);
  else return static_cast<double>(v);
}

}  // namespace

std::unique_ptr<fire::FireModel> make_model(const ScenarioSpec& spec) {
  validate(spec);
  const grid::Grid2D g(spec.nx, spec.ny, spec.dx, spec.dy);
  fire::FuelMap fuel = fire::uniform_fuel(spec.nx, spec.ny, spec.fuel_category);
  for (fire::FuelCategory& c : fuel.catalog) {
    c.M *= spec.fuel_moisture_scale;
    c.tau *= spec.burn_time_scale;
  }
  auto model = std::make_unique<fire::FireModel>(
      g, std::move(fuel), fire::terrain_flat(g), spec.fire);
  if (!spec.ignitions.empty()) model->ignite(spec.ignitions);
  return model;
}

bool is_integer_in(double v, double lo, double hi) {
  return v >= lo && v <= hi && v == std::floor(v);
}

void validate(const ScenarioSpec& spec) {
  for_each_field(spec, [](const Field& f, const auto& v) {
    if constexpr (kIsIgnitions<decltype(v)>) {
      for (const levelset::Ignition& ign : v) levelset::validate(ign);
    } else if (!kIsU64<decltype(v)> && !admits(f, to_slot(v))) {
      throw std::invalid_argument(std::string("ScenarioSpec: ") + f.name +
                                  " out of range");
    }
  });
}

void write_meta(const ScenarioSpec& spec, std::span<double> meta) {
  for_each_field(spec, [meta](const Field& f, const auto& v) {
    if constexpr (kIsU64<decltype(v)>) {
      meta[f.slot] = static_cast<double>(v & 0xffffffffULL);
      meta[f.slot + 1] = static_cast<double>(v >> 32);
    } else if constexpr (!kIsIgnitions<decltype(v)>) {
      meta[f.slot] = to_slot(v);
    }
  });
}

ScenarioSpec read_meta(std::span<const double> meta) {
  const auto slot = [meta](const Field& f, std::size_t k) {
    if (!admits(f, meta[k]))
      throw std::runtime_error(
          "ScenarioServer: corrupt checkpoint meta slot " + std::to_string(k));
    return meta[k];
  };
  ScenarioSpec spec;
  for_each_field(spec, [&slot](const Field& f, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (kIsU64<T>) {
      v = static_cast<T>(slot(f, f.slot)) |
          (static_cast<T>(slot(f, f.slot + 1)) << 32);
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(static_cast<int>(slot(f, f.slot)));
    } else if constexpr (!kIsIgnitions<T>) {
      v = static_cast<T>(slot(f, f.slot));
    }
  });
  return spec;
}

void hash_spec(util::Fnv1a& h, const ScenarioSpec& spec) {
  for_each_field(spec, [&h](const Field& f, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if (!f.keyed) return;
    if constexpr (kIsIgnitions<T>) {
      h.u64(v.size());
      for (const levelset::Ignition& ign : v) {
        h.i32(static_cast<int>(ign.index()));
        levelset::for_each_param(ign, [&h](double p, auto) { h.f64(p); });
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      h.f64(v);
    } else {
      h.u64(static_cast<std::uint64_t>(v));  // Fnv1a folds all ints as u64
    }
  });
}

}  // namespace wfire::serve
