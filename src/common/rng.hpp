// Deterministic random number generation.
//
// Every stochastic decision in the library (replica placement, replica choice,
// unmatched-task fill, workload generation) draws from a seeded Rng so that
// experiments are reproducible bit-for-bit. The generator is xoshiro256**,
// seeded via splitmix64 as its authors recommend.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_vector.hpp"
#include "common/require.hpp"

namespace opass {

/// xoshiro256** pseudo-random generator with helpers for the distributions the
/// library needs. Satisfies UniformRandomBitGenerator so it also plugs into
/// <random> and <algorithm> where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed (splitmix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// Pareto (heavy-tailed) variate with scale xm > 0 and shape alpha > 0.
  /// Used for irregular task compute times (gene comparison, Section IV-D).
  double pareto(double xm, double alpha);

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  /// Order of the result is random. O(n) when k is a large fraction of n;
  /// otherwise each draw is checked against the picks so far, O(k^2)
  /// comparisons, which for replica-sized k beats hashing. Up to four picks
  /// are held inline (the dfs::ReplicaList layout placement returns as-is).
  InlineVector<std::uint32_t, 4> sample_without_replacement(std::uint32_t n, std::uint32_t k);

  /// Split off an independent generator (for per-component streams).
  Rng split();

 private:
  std::uint64_t next();
  std::uint64_t s_[4]{};
};

}  // namespace opass
