#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace mivid {

namespace {

// splitmix64: seeds the xoshiro state from a single 64-bit value.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(&x);
}

uint64_t Rng::Next() {
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

double Rng::Uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit span
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t r;
  do {
    r = Next();
  } while (r >= limit);
  return lo + static_cast<int64_t>(r % range);
}

namespace {

/// Box-Muller's rejection bound on u1 (keeps log(u1) finite).
constexpr double kMinU1 = 1e-300;

}  // namespace

void Rng::DrawPairUniforms(double* u1, double* u2) {
  do {
    *u1 = Uniform();
  } while (*u1 <= kMinU1);
  *u2 = Uniform();
}

void Rng::BoxMullerPair(double u1, double u2, double* g_cos, double* g_sin) {
  const double mag = std::sqrt(-2.0 * std::log(u1));
  *g_cos = mag * std::cos(2.0 * M_PI * u2);
  *g_sin = mag * std::sin(2.0 * M_PI * u2);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2, g_cos;
  DrawPairUniforms(&u1, &u2);
  BoxMullerPair(u1, u2, &g_cos, &cached_gaussian_);
  has_cached_gaussian_ = true;
  return g_cos;
}

void Rng::BoxMullerUniforms(size_t pairs, double* u1, double* u2) {
  MIVID_CHECK(!has_cached_gaussian_) << "a cached Gaussian precedes the pairs";
  for (size_t i = 0; i < pairs; ++i) DrawPairUniforms(&u1[i], &u2[i]);
}

void Rng::SkipGaussians(size_t n) {
  if (n > 0 && has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    --n;
  }
  // Each pair of draws consumes the same (u1, u2) a fresh Gaussian() does.
  for (double u1, u2; n >= 2; n -= 2) DrawPairUniforms(&u1, &u2);
  if (n == 1) (void)Gaussian();
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa5a5a5a5deadbeefULL); }

}  // namespace mivid
