// Portable scalar tier of the SIMD kernel table.
//
// This translation unit is the bit-exactness reference: the AVX2 tier
// must reproduce these results lane for lane. It is compiled with
// -ffp-contract=off (see src/CMakeLists.txt) so the compiler cannot fuse
// the mul-then-add sequences into FMAs on targets where that is the
// default — contraction would silently change roundings and break the
// scalar-vs-AVX2 bit-identity contract.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/rng.h"
#include "linalg/box_muller_constants.h"
#include "linalg/det_exp_constants.h"
#include "linalg/simd.h"

namespace mivid {

namespace {

inline double DetExpImpl(double x) {
  using namespace det_exp;
  if (x > kClamp) x = kClamp;
  if (x < -kClamp) x = -kClamp;
  const double k = __builtin_floor(x * kLog2e + 0.5);
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double p = kPoly[0];
  for (int i = 1; i < 14; ++i) p = p * r + kPoly[i];
  // Exact 2^k via the exponent field; k is integral in [-1023, 1023].
  const int64_t ki = static_cast<int64_t>(k);
  const uint64_t bits = static_cast<uint64_t>(ki + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

void ExpandedD2Row(const double* u, double u_norm2, size_t dim,
                   const double* x, size_t stride, const double* norms,
                   size_t count, double* out) {
  for (size_t j = 0; j < count; ++j) {
    double dot = 0.0;
    for (size_t k = 0; k < dim; ++k) dot += u[k] * x[k * stride + j];
    const double d2 = u_norm2 + norms[j] - 2.0 * dot;
    out[j] = d2 > 0.0 ? d2 : 0.0;
  }
}

void DirectD2Row(const double* u, size_t dim, const double* x, size_t stride,
                 size_t count, double* out) {
  for (size_t j = 0; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      const double d = u[k] - x[k * stride + j];
      acc += d * d;
    }
    out[j] = acc;
  }
}

void DotRow(const double* u, size_t dim, const double* x, size_t stride,
            size_t count, double* out) {
  for (size_t j = 0; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) acc += u[k] * x[k * stride + j];
    out[j] = acc;
  }
}

void Axpy(double a, const double* x, size_t count, double* y) {
  for (size_t t = 0; t < count; ++t) y[t] += a * x[t];
}

void AxpyDiff(double a, const double* p, const double* q, size_t count,
              double* y) {
  for (size_t t = 0; t < count; ++t) y[t] += a * (p[t] - q[t]);
}

void RbfFromD2Row(double gamma, const double* d2, size_t count, double* out) {
  const double ng = -gamma;
  for (size_t j = 0; j < count; ++j) out[j] = DetExpImpl(ng * d2[j]);
}

bool NoiseUniformLanes(RngState* lanes, size_t count, size_t stride,
                       double* u1, double* u2) {
  // Four interleaved generators: their dependency chains overlap.
  Rng rngs[4];
  for (int j = 0; j < 4; ++j) rngs[j].set_state(lanes[j]);
  bool rejected = false;
  for (size_t i = 0; i < count; ++i) {
    for (int j = 0; j < 4; ++j) {
      const double a = rngs[j].Uniform();
      u1[j * stride + i] = a;
      u2[j * stride + i] = rngs[j].Uniform();
      rejected |= a == 0.0;
    }
  }
  for (int j = 0; j < 4; ++j) lanes[j] = rngs[j].state();
  return rejected;
}

void BoxMullerRow(const double* u1, const double* u2, size_t count,
                  double* g_cos, double* g_sin) {
  using namespace box_muller;
  for (size_t j = 0; j < count; ++j) {
    // log u1 = e ln2 + log m, m in [sqrt(1/2), sqrt(2)).
    const uint64_t bits = std::bit_cast<uint64_t>(u1[j]);
    double e = std::bit_cast<double>((bits >> 52) | kTwo52Bits) -
               kTwo52PlusBias;
    double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
    if (m >= kSqrt2) {
      m = m * 0.5;
      e = e + 1.0;
    }
    const double s = (m - 1.0) / (m + 1.0);
    const double z = s * s;
    double q = kLogPoly[0];
    for (int i = 1; i < kLogTerms; ++i) q = q * z + kLogPoly[i];
    const double log_m = 2.0 * s + s * (z * q);
    const double log_u1 = e * kLn2Hi + (log_m + e * kLn2Lo);
    const double mag = std::sqrt(-2.0 * log_u1);

    // 2 pi u2 = quadrant pi/2 + theta, |theta| <= pi/4.
    const double quadrant = __builtin_floor(u2[j] * 4.0 + 0.5);
    const double theta = (u2[j] - quadrant * 0.25) * kTwoPi;
    const double t2 = theta * theta;
    double sp = kSinPoly[0];
    for (int i = 1; i < kSinTerms; ++i) sp = sp * t2 + kSinPoly[i];
    double cp = kCosPoly[0];
    for (int i = 1; i < kCosTerms; ++i) cp = cp * t2 + kCosPoly[i];
    const double sin_t = theta + theta * (t2 * sp);
    const double cos_t = 1.0 + t2 * cp;
    const bool odd = quadrant == 1.0 || quadrant == 3.0;
    double cosine = odd ? sin_t : cos_t;
    double sine = odd ? cos_t : sin_t;
    if (quadrant == 1.0 || quadrant == 2.0) cosine = -cosine;
    if (quadrant == 2.0 || quadrant == 3.0) sine = -sine;
    g_cos[j] = mag * cosine;
    g_sin[j] = mag * sine;
  }
}

size_t QuantizeNoisyPairs(const uint8_t* pixels, const double* g_cos,
                          const double* g_sin, size_t count,
                          double illumination, double stddev, double far,
                          uint8_t* bytes, uint32_t* flagged) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    double w0 = static_cast<double>(pixels[2 * i]) + illumination;
    w0 += 0.0 + stddev * g_cos[i];
    w0 = std::min(std::max(w0, 0.5), 255.5);
    double w1 = static_cast<double>(pixels[2 * i + 1]) + illumination;
    w1 += 0.0 + stddev * g_sin[i];
    w1 = std::min(std::max(w1, 0.5), 255.5);
    const int b0 = static_cast<int>(w0);
    const int b1 = static_cast<int>(w1);
    bytes[2 * i] = static_cast<uint8_t>(b0);
    bytes[2 * i + 1] = static_cast<uint8_t>(b1);
    // Branch-free: always write the index, keep it only when flagged.
    flagged[n] = static_cast<uint32_t>(i);
    n += (std::fabs(w0 - b0 - 0.5) > far) | (std::fabs(w1 - b1 - 0.5) > far);
  }
  return n;
}

uint32_t SelectiveMeanStripe(const uint8_t* px, size_t count, double a,
                             double threshold, bool update, double* mean,
                             uint8_t* mask) {
  if (update) {
    for (size_t i = 0; i < count; ++i) {
      if (std::fabs(px[i] - mean[i]) < threshold) {
        mean[i] = (1.0 - a) * mean[i] + a * px[i];
      }
    }
  }
  if (mask == nullptr) return 0;
  uint32_t sum = 0;
  for (size_t i = 0; i < count; ++i) {
    mask[i] = std::fabs(px[i] - mean[i]) >= threshold;
    sum += static_cast<uint8_t>(std::clamp(mean[i], 0.0, 255.0));
  }
  return sum;
}

}  // namespace

double DetExp(double x) { return DetExpImpl(x); }

namespace simd_internal {

const SimdOpsTable kScalarOps = {
    ExpandedD2Row,      DirectD2Row,  DotRow,
    Axpy,               AxpyDiff,     RbfFromD2Row,
    NoiseUniformLanes,  BoxMullerRow, QuantizeNoisyPairs,
    SelectiveMeanStripe,
};

}  // namespace simd_internal
}  // namespace mivid
