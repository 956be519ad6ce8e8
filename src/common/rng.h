// Deterministic random number generation.
//
// Every stochastic component in this library takes an explicit 64-bit seed so
// that experiments are reproducible. `Rng` wraps std::mt19937_64 seeded
// through splitmix64 (which decorrelates nearby seeds), and provides the
// distributions the library needs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace amf::common {

/// splitmix64 step: maps a 64-bit state to a well-mixed 64-bit output.
/// Used to derive independent sub-seeds from a master seed.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Derives a decorrelated child seed from (seed, stream_id). Deterministic.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream_id);

/// Seeded pseudo-random generator with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0);

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0. The draw is the one
  /// libstdc++'s uniform_int_distribution<std::size_t>(0, n - 1) makes
  /// from a 64-bit engine (Lemire's nearly-divisionless method, redraws
  /// included), so sequences match the standard distribution exactly.
  std::size_t Index(std::size_t n) { return IndexFrom(engine_(), n); }

  /// Index's mapping applied to an engine output drawn earlier
  /// (`raw` = engine()()). Redraws for a rejected `raw` come from this
  /// engine, so drawing ahead and mapping later consumes the same engine
  /// outputs, in the same order, as calling Index(n) at the later point —
  /// provided nothing else draws from the engine in between.
  std::size_t IndexFrom(std::uint64_t raw, std::size_t n) {
    AMF_CHECK_MSG(n > 0, "Rng::Index requires n > 0");
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    using Wide = unsigned __int128;
    Wide product = Wide{raw} * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = -static_cast<std::uint64_t>(n) % n;
      while (low < threshold) {
        product = Wide{engine_()} * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::size_t>(product >> 64);
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t Int(std::int64_t lo, std::int64_t hi);
  /// Standard normal draw.
  double Normal();
  /// Normal draw with the given mean / stddev.
  double Normal(double mean, double stddev);
  /// Log-normal draw: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);
  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);
  /// Exponential draw with the given rate.
  double Exponential(double rate);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = Index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Returns a random permutation of {0, ..., n-1}.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Samples k distinct indices from {0, ..., n-1} (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Forks an independent child generator; deterministic in (this seed, id).
  Rng Fork(std::uint64_t stream_id) const;

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace amf::common
