// Deterministic random number generation.
//
// All stochastic components (traffic simulator, noise injection, solver
// shuffles) draw from an explicitly seeded Rng so that every experiment in
// the repository is reproducible bit-for-bit.

#ifndef MIVID_COMMON_RNG_H_
#define MIVID_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mivid {

/// The four xoshiro256** state words, in the generator's order.
using RngState = std::array<uint64_t, 4>;

class RngJump;

/// Deterministic PRNG (xoshiro256**) with convenience distributions.
///
/// Not thread-safe; use one instance per thread or component.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of Next().
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

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

  /// Advances the generator exactly as jump.steps() Next() calls would;
  /// a cached Gaussian stays cached.
  void Jump(const RngJump& jump);

  /// The xoshiro256** state: where the raw stream stands.
  const RngState& state() const { return s_; }

  /// Repositions the raw stream at `state` and drops any cached Gaussian.
  void set_state(const RngState& state) {
    s_ = state;
    has_cached_gaussian_ = false;
  }

  /// Same stream position: equal state and equal cached Gaussian, if any.
  bool operator==(const Rng& other) const {
    return s_ == other.s_ &&
           has_cached_gaussian_ == other.has_cached_gaussian_ &&
           (!has_cached_gaussian_ ||
            cached_gaussian_ == other.cached_gaussian_);
  }

  /// Derives an independent child generator (for per-component streams).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Draws one pair's uniforms exactly as a fresh Gaussian() does.
  void DrawPairUniforms(double* u1, double* u2);

  RngState s_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// The xoshiro256** state transition raised to a fixed power: a 256x256
/// matrix over GF(2) (8 KiB), since every step is linear in the state
/// bits. Applying it advances a generator by steps() Next() calls in 256
/// masked XORs of four words, however large steps() is (Haramoto et al.,
/// "Efficient Jump Ahead for F2-Linear Random Number Generators", 2008).
class RngJump {
 public:
  /// The jump by `steps` Next() calls, by square-and-multiply of the
  /// one-step matrix (~20 matrix products for 2^16 steps).
  explicit RngJump(uint64_t steps);

  /// The jump by `steps`, built on first use and then shared by the whole
  /// process. Thread-safe; the reference stays valid until exit.
  static const RngJump& Cached(uint64_t steps);

  uint64_t steps() const { return steps_; }

  /// Advances `state` by steps() Next() calls.
  void Apply(RngState* state) const;

  /// The jump by steps() + next.steps(): this one, then `next`.
  RngJump Then(const RngJump& next) const;

 private:
  RngJump() = default;

  uint64_t steps_ = 0;
  /// Column i: the image of the state with only bit i (word i / 64,
  /// bit i % 64) set.
  std::array<RngState, 256> columns_;
};

}  // namespace mivid

#endif  // MIVID_COMMON_RNG_H_
