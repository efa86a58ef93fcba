#include "common/rng.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

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

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(&x);
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

void Rng::Jump(const RngJump& jump) { jump.Apply(&s_); }

Rng Rng::Fork() { return Rng(Next() ^ 0xa5a5a5a5deadbeefULL); }

RngJump::RngJump(uint64_t steps) {
  // result = M^0, power = M^(2^k); multiply in the set bits of `steps`.
  // Powers of one matrix commute, so the order of the products is free.
  RngJump result;
  RngJump power;
  for (int i = 0; i < 256; ++i) {
    RngState bit{};
    bit[i / 64] = uint64_t{1} << (i % 64);
    result.columns_[i] = bit;
    Rng step;
    step.set_state(bit);
    (void)step.Next();
    power.columns_[i] = step.state();
  }
  power.steps_ = 1;
  for (uint64_t left = steps;;) {
    if (left & 1) result = result.Then(power);
    left >>= 1;
    if (left == 0) break;
    power = power.Then(power);
  }
  *this = result;
}

const RngJump& RngJump::Cached(uint64_t steps) {
  static std::mutex mu;
  static std::map<uint64_t, std::unique_ptr<const RngJump>> cache;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<const RngJump>& jump = cache[steps];
  if (jump == nullptr) jump = std::make_unique<const RngJump>(steps);
  return *jump;
}

void RngJump::Apply(RngState* state) const {
  RngState out{};
  for (int i = 0; i < 256; ++i) {
    // All ones when bit i of the state is set: branch-free accumulation.
    const uint64_t mask = 0 - (((*state)[i / 64] >> (i % 64)) & 1);
    for (int w = 0; w < 4; ++w) out[w] ^= columns_[i][w] & mask;
  }
  *state = out;
}

RngJump RngJump::Then(const RngJump& next) const {
  RngJump out;
  out.steps_ = steps_ + next.steps_;
  for (int i = 0; i < 256; ++i) {
    out.columns_[i] = columns_[i];
    next.Apply(&out.columns_[i]);
  }
  return out;
}

}  // namespace mivid
