// Deterministic random number generation.
//
// All stochastic components take an explicit `Rng&` so that every simulation
// is reproducible from a single seed (no hidden global state, cf. I.2).
#pragma once

#include <cstdint>
#include <random>

#include "common/types.hpp"

namespace uwb {

/// Smallest uniform variate Rng::rayleigh draws: rayleigh(sigma) is
/// sigma * sqrt(-2 ln u) with u in [kRayleighMinUniform, 1).
inline constexpr double kRayleighMinUniform = 1e-300;

/// Largest rayleigh(sigma) / (sigma * sqrt(2)), the Rayleigh amplitude per
/// unit RMS amplitude: sqrt(-2 ln 1e-300) / sqrt(2) = sqrt(300 ln 10) =
/// 26.2826088487..., carried with a relative margin of 1e-9 to cover the
/// rounding of log, sqrt and a unit-phase product. A ray whose RMS
/// amplitude times this bound is below a threshold never reaches it.
inline constexpr double kRayleighMaxPerRms = 26.282608875067268;

/// Deterministically derive the seed of sub-stream `stream` from a base
/// seed. Pure 64-bit integer mixing (splitmix64 finalizer), so the result
/// is identical on every platform, compiler, and thread schedule — the
/// foundation of the Monte-Carlo engine's determinism contract: trial i of
/// a run seeded with `base` always uses derive_seed(base, i), regardless
/// of how trials are distributed over worker threads.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// Seeded pseudo-random source with the distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Rayleigh-distributed magnitude with scale sigma; never above
  /// sigma * sqrt(2) * kRayleighMaxPerRms.
  double rayleigh(double sigma);

  /// Exponential with given mean.
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double probability);

  /// Circularly-symmetric complex Gaussian sample with per-component sigma.
  Complex complex_normal(double sigma);

  /// Unit-magnitude complex number with uniform phase.
  Complex random_phase();

  /// Fork a new independent generator (stream split for sub-components).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace uwb
