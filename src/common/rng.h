// Deterministic random number generation.
//
// All stochastic components (traffic simulator, noise injection, solver
// shuffles) draw from an explicitly seeded Rng so that every experiment in
// the repository is reproducible bit-for-bit.

#ifndef MIVID_COMMON_RNG_H_
#define MIVID_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mivid {

/// Deterministic PRNG (xoshiro256**) with convenience distributions.
///
/// Not thread-safe; use one instance per thread or component.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double Gaussian();

  /// True when the next Gaussian() returns the cached second value of a
  /// pair instead of drawing a new one.
  bool has_cached_gaussian() const { return has_cached_gaussian_; }

  /// Draws the (u1, u2) that `pairs` fresh Gaussian() pairs consume, u1
  /// rejection included, into u1[0..pairs) and u2[0..pairs). Pair i's
  /// values are BoxMullerPair(u1[i], u2[i]). Requires no cached value.
  void BoxMullerUniforms(size_t pairs, double* u1, double* u2);

  /// The Box-Muller pair Gaussian() derives from its uniforms: the first
  /// value it returns (cosine) and the one it caches (sine), via libm.
  static void BoxMullerPair(double u1, double u2, double* g_cos,
                            double* g_sin);

  /// Advances the generator exactly as `n` Gaussian() calls would
  /// (cached second value and u1 rejection included), without evaluating
  /// log/sin/cos except for a trailing unpaired draw, whose second value
  /// must be cached. Lets a caller hand a stream position to another
  /// thread while it moves on.
  void SkipGaussians(size_t n);

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork();

 private:
  /// Draws one pair's uniforms exactly as a fresh Gaussian() does.
  void DrawPairUniforms(double* u1, double* u2);

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace mivid

#endif  // MIVID_COMMON_RNG_H_
