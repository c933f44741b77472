// Deterministic random number generation.
//
// All stochastic components take an explicit `Rng&` so that every simulation
// is reproducible from a single seed (no hidden global state, cf. I.2).
#pragma once

#include <cstdint>
#include <random>

#include "common/types.hpp"

namespace uwb {

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

  /// Rayleigh-distributed magnitude with scale sigma.
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
