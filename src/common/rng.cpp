#include "common/rng.h"

namespace amf::common {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream_id) {
  std::uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (stream_id + 1));
  (void)SplitMix64(state);
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t state = seed;
  // Seed mt19937_64 with a splitmix-derived sequence (recommended practice:
  // raw small seeds produce correlated mt19937 streams).
  std::seed_seq seq{SplitMix64(state), SplitMix64(state), SplitMix64(state),
                    SplitMix64(state)};
  engine_.seed(seq);
}

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  AMF_DCHECK(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::Int(std::int64_t lo, std::int64_t hi) {
  AMF_DCHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::Normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

bool Rng::Bernoulli(double p) {
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::Exponential(double rate) {
  AMF_DCHECK(rate > 0.0);
  return std::exponential_distribution<double>(rate)(engine_);
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(perm);
  return perm;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  AMF_CHECK_MSG(k <= n, "sample size exceeds population");
  // Partial Fisher-Yates: O(n) memory, O(n + k) time.
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + Index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

Rng Rng::Fork(std::uint64_t stream_id) const {
  return Rng(DeriveSeed(seed_, stream_id));
}

}  // namespace amf::common
