// AVX2 tier of the SIMD kernel table (4 doubles per lane group).
//
// Compiled with -mavx2 only — deliberately NOT -mfma: the scalar tier
// uses plain mul-then-add, and fusing here would change roundings and
// break the bit-identity contract. Every loop vectorizes across
// independent outputs (one output per lane) while the per-output
// accumulation order matches the scalar tier exactly; tails run the
// scalar code path. Main loops process two lane groups (8 outputs) per
// iteration so the u[k] broadcasts are shared and the mul->add latency
// chains overlap — interleaving changes scheduling only, never the op
// sequence an individual output sees, so results stay bit-identical.
// Loads are unaligned (loadu) so callers may pass any offset into a
// packed matrix.
//
// Only ever called after runtime CPUID dispatch confirms AVX2 (simd.cc),
// so executing these instructions is safe even on a generic build.

#if defined(MIVID_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/box_muller_constants.h"
#include "linalg/det_exp_constants.h"
#include "linalg/simd.h"

namespace mivid {
namespace {

/// Four-lane DetExp: the same op sequence as the scalar DetExpImpl.
inline __m256d DetExp4(__m256d x) {
  using namespace det_exp;
  const __m256d clamp = _mm256_set1_pd(kClamp);
  x = _mm256_min_pd(x, clamp);
  x = _mm256_max_pd(x, _mm256_set1_pd(-kClamp));
  // k = floor(x * log2e + 0.5)
  const __m256d k = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), _mm256_set1_pd(0.5)));
  // r = (x - k*ln2_hi) - k*ln2_lo
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
      _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d p = _mm256_set1_pd(kPoly[0]);
  for (int i = 1; i < 14; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kPoly[i]));
  }
  // scale = 2^k exactly, via the exponent field.
  const __m128i k32 = _mm256_cvtpd_epi32(k);  // k is integral, in range
  const __m256i k64 = _mm256_cvtepi32_epi64(k32);
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  const __m256d scale = _mm256_castsi256_pd(bits);
  return _mm256_mul_pd(p, scale);
}

/// 2^k scaling factor of DetExp for an integral-valued k vector.
inline __m256d DetExpScale(__m256d k) {
  const __m256i k64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
  return _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52));
}

void ExpandedD2Row(const double* u, double u_norm2, size_t dim,
                   const double* x, size_t stride, const double* norms,
                   size_t count, double* out) {
  const __m256d vnorm_u = _mm256_set1_pd(u_norm2);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d dot0 = zero;
    __m256d dot1 = zero;
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      dot0 = _mm256_add_pd(dot0, _mm256_mul_pd(uk, _mm256_loadu_pd(base)));
      dot1 = _mm256_add_pd(dot1, _mm256_mul_pd(uk, _mm256_loadu_pd(base + 4)));
    }
    const __m256d d20 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j)),
        _mm256_mul_pd(two, dot0));
    const __m256d d21 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j + 4)),
        _mm256_mul_pd(two, dot1));
    // max(d2, +0.0): returns +0.0 for d2 <= 0, matching `d2 > 0 ? d2 : 0`.
    _mm256_storeu_pd(out + j, _mm256_max_pd(d20, zero));
    _mm256_storeu_pd(out + j + 4, _mm256_max_pd(d21, zero));
  }
  for (; j + 4 <= count; j += 4) {
    __m256d dot = zero;
    for (size_t k = 0; k < dim; ++k) {
      const __m256d xv = _mm256_loadu_pd(x + k * stride + j);
      dot = _mm256_add_pd(dot, _mm256_mul_pd(_mm256_set1_pd(u[k]), xv));
    }
    const __m256d d2 = _mm256_sub_pd(
        _mm256_add_pd(vnorm_u, _mm256_loadu_pd(norms + j)),
        _mm256_mul_pd(two, dot));
    _mm256_storeu_pd(out + j, _mm256_max_pd(d2, zero));
  }
  for (; j < count; ++j) {
    double dot = 0.0;
    for (size_t k = 0; k < dim; ++k) dot += u[k] * x[k * stride + j];
    const double d2 = u_norm2 + norms[j] - 2.0 * dot;
    out[j] = d2 > 0.0 ? d2 : 0.0;
  }
}

void DirectD2Row(const double* u, size_t dim, const double* x, size_t stride,
                 size_t count, double* out) {
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      const __m256d da = _mm256_sub_pd(uk, _mm256_loadu_pd(base));
      const __m256d db = _mm256_sub_pd(uk, _mm256_loadu_pd(base + 4));
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(da, da));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(db, db));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  for (; j + 4 <= count; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d d = _mm256_sub_pd(_mm256_set1_pd(u[k]),
                                      _mm256_loadu_pd(x + k * stride + j));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < count; ++j) {
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
  size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d uk = _mm256_set1_pd(u[k]);
      const double* base = x + k * stride + j;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(uk, _mm256_loadu_pd(base)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(uk, _mm256_loadu_pd(base + 4)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  for (; j + 4 <= count; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(u[k]),
                                             _mm256_loadu_pd(x + k * stride + j)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < count; ++j) {
    double acc = 0.0;
    for (size_t k = 0; k < dim; ++k) acc += u[k] * x[k * stride + j];
    out[j] = acc;
  }
}

void Axpy(double a, const double* x, size_t count, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d yv = _mm256_loadu_pd(y + t);
    _mm256_storeu_pd(
        y + t, _mm256_add_pd(yv, _mm256_mul_pd(va, _mm256_loadu_pd(x + t))));
  }
  for (; t < count; ++t) y[t] += a * x[t];
}

void AxpyDiff(double a, const double* p, const double* q, size_t count,
              double* y) {
  const __m256d va = _mm256_set1_pd(a);
  size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(p + t), _mm256_loadu_pd(q + t));
    const __m256d yv = _mm256_loadu_pd(y + t);
    _mm256_storeu_pd(y + t, _mm256_add_pd(yv, _mm256_mul_pd(va, diff)));
  }
  for (; t < count; ++t) y[t] += a * (p[t] - q[t]);
}

void RbfFromD2Row(double gamma, const double* d2, size_t count, double* out) {
  const double ng = -gamma;
  const __m256d vng = _mm256_set1_pd(ng);
  size_t j = 0;
  // Four interleaved 4-lane DetExp evaluations: the Horner recurrence is
  // a serial mul->add dependency chain, so a single chain leaves the FP
  // units mostly idle; four independent chains keep them saturated.
  for (; j + 16 <= count; j += 16) {
    using namespace det_exp;
    const __m256d clamp_hi = _mm256_set1_pd(kClamp);
    const __m256d clamp_lo = _mm256_set1_pd(-kClamp);
    __m256d x0 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j));
    __m256d x1 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 4));
    __m256d x2 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 8));
    __m256d x3 = _mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j + 12));
    x0 = _mm256_max_pd(_mm256_min_pd(x0, clamp_hi), clamp_lo);
    x1 = _mm256_max_pd(_mm256_min_pd(x1, clamp_hi), clamp_lo);
    x2 = _mm256_max_pd(_mm256_min_pd(x2, clamp_hi), clamp_lo);
    x3 = _mm256_max_pd(_mm256_min_pd(x3, clamp_hi), clamp_lo);
    const __m256d log2e = _mm256_set1_pd(kLog2e);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d k0 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x0, log2e), half));
    const __m256d k1 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x1, log2e), half));
    const __m256d k2 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x2, log2e), half));
    const __m256d k3 =
        _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x3, log2e), half));
    const __m256d hi = _mm256_set1_pd(kLn2Hi);
    const __m256d lo = _mm256_set1_pd(kLn2Lo);
    const __m256d r0 = _mm256_sub_pd(
        _mm256_sub_pd(x0, _mm256_mul_pd(k0, hi)), _mm256_mul_pd(k0, lo));
    const __m256d r1 = _mm256_sub_pd(
        _mm256_sub_pd(x1, _mm256_mul_pd(k1, hi)), _mm256_mul_pd(k1, lo));
    const __m256d r2 = _mm256_sub_pd(
        _mm256_sub_pd(x2, _mm256_mul_pd(k2, hi)), _mm256_mul_pd(k2, lo));
    const __m256d r3 = _mm256_sub_pd(
        _mm256_sub_pd(x3, _mm256_mul_pd(k3, hi)), _mm256_mul_pd(k3, lo));
    // 2^k while k is still live; frees the k registers for the chains.
    const __m256d s0 = DetExpScale(k0);
    const __m256d s1 = DetExpScale(k1);
    const __m256d s2 = DetExpScale(k2);
    const __m256d s3 = DetExpScale(k3);
    __m256d p0 = _mm256_set1_pd(kPoly[0]);
    __m256d p1 = p0;
    __m256d p2 = p0;
    __m256d p3 = p0;
    for (int i = 1; i < 14; ++i) {
      const __m256d c = _mm256_set1_pd(kPoly[i]);
      p0 = _mm256_add_pd(_mm256_mul_pd(p0, r0), c);
      p1 = _mm256_add_pd(_mm256_mul_pd(p1, r1), c);
      p2 = _mm256_add_pd(_mm256_mul_pd(p2, r2), c);
      p3 = _mm256_add_pd(_mm256_mul_pd(p3, r3), c);
    }
    _mm256_storeu_pd(out + j, _mm256_mul_pd(p0, s0));
    _mm256_storeu_pd(out + j + 4, _mm256_mul_pd(p1, s1));
    _mm256_storeu_pd(out + j + 8, _mm256_mul_pd(p2, s2));
    _mm256_storeu_pd(out + j + 12, _mm256_mul_pd(p3, s3));
  }
  for (; j + 4 <= count; j += 4) {
    _mm256_storeu_pd(out + j,
                     DetExp4(_mm256_mul_pd(vng, _mm256_loadu_pd(d2 + j))));
  }
  for (; j < count; ++j) out[j] = DetExp(ng * d2[j]);
}

/// Four xoshiro256** states, one per 64-bit lane: word k of lane j is
/// element j of s[k].
struct Xoshiro4 {
  __m256i s[4];
};

inline __m256i Rotl4(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

/// One Next() per lane; the multiplies by 5 and 9 are shift-adds.
inline __m256i Next4(Xoshiro4* x) {
  __m256i* s = x->s;
  const __m256i times5 = _mm256_add_epi64(s[1], _mm256_slli_epi64(s[1], 2));
  const __m256i rot = Rotl4(times5, 7);
  const __m256i result = _mm256_add_epi64(rot, _mm256_slli_epi64(rot, 3));
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = Rotl4(s[3], 45);
  return result;
}

/// (x >> 11) * 2^-53 exactly, without a 64-bit integer conversion: the
/// top 52 bits as the mantissa of a double in [1, 2), minus 1, plus 2^-53
/// when bit 11 is set. Every value k 2^-53 with k < 2^53 is a double, so
/// the subtraction and the addition are exact.
inline __m256d ToUnit4(__m256i x) {
  const __m256i bit11 = _mm256_set1_epi64x(int64_t{1} << 11);
  const __m256d high = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(x, 12),
          _mm256_set1_epi64x(static_cast<int64_t>(box_muller::kOneBits)))),
      _mm256_set1_pd(1.0));
  const __m256d low = _mm256_and_pd(
      _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(x, bit11), bit11)),
      _mm256_set1_pd(0x1p-53));
  return _mm256_add_pd(high, low);
}

/// Transposes the 4x4 matrix whose rows are r[0..3]: on exit r[k][j] is
/// the old r[j][k].
inline void Transpose4(__m256d* r) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

bool NoiseUniformLanes(RngState* lanes, size_t count, size_t stride,
                       double* u1, double* u2) {
  // Element j of the vectors is generator j: word k of every generator is
  // gathered into s[k], and scattered back at the end.
  Xoshiro4 x;
  for (int k = 0; k < 4; ++k) {
    x.s[k] = _mm256_set_epi64x(static_cast<int64_t>(lanes[3][k]),
                               static_cast<int64_t>(lanes[2][k]),
                               static_cast<int64_t>(lanes[1][k]),
                               static_cast<int64_t>(lanes[0][k]));
  }
  const __m256d zero = _mm256_setzero_pd();
  __m256d rejected = zero;
  size_t i = 0;
  // Four pairs per iteration: draw them for every generator, then
  // transpose so each generator's four u1 (and u2) are stored together.
  for (; i + 4 <= count; i += 4) {
    __m256d a[4], b[4];
    for (int p = 0; p < 4; ++p) {
      a[p] = ToUnit4(Next4(&x));
      b[p] = ToUnit4(Next4(&x));
      rejected = _mm256_or_pd(rejected, _mm256_cmp_pd(a[p], zero, _CMP_EQ_OQ));
    }
    Transpose4(a);
    Transpose4(b);
    for (int j = 0; j < 4; ++j) {
      _mm256_storeu_pd(u1 + j * stride + i, a[j]);
      _mm256_storeu_pd(u2 + j * stride + i, b[j]);
    }
  }
  alignas(32) uint64_t words[4][4];
  for (int k = 0; k < 4; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(words[k]), x.s[k]);
  }
  for (int j = 0; j < 4; ++j) {
    for (int k = 0; k < 4; ++k) lanes[j][k] = words[k][j];
  }
  bool tail_rejected = false;
  if (i < count) {
    tail_rejected = simd_internal::kScalarOps.noise_uniform_lanes(
        lanes, count - i, stride, u1 + i, u2 + i);
  }
  return _mm256_movemask_pd(rejected) != 0 || tail_rejected;
}

/// Horner evaluation of `poly` at `z`, as the scalar tier's loops.
template <int kTerms>
inline __m256d Horner4(const double (&poly)[kTerms], __m256d z) {
  __m256d p = _mm256_set1_pd(poly[0]);
  for (int i = 1; i < kTerms; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(poly[i]));
  }
  return p;
}

/// Four-lane Box-Muller: the same op sequence as the scalar BoxMullerRow,
/// with its branches as blends.
inline void BoxMuller4(__m256d u1, __m256d u2, __m256d* g_cos,
                       __m256d* g_sin) {
  using namespace box_muller;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i bits = _mm256_castpd_si256(u1);
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(kTwo52Bits))),
      _mm256_set1_pd(kTwo52PlusBias));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(kMantissaMask)),
      _mm256_set1_epi64x(kOneBits)));
  const __m256d big = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  e = _mm256_blendv_pd(e, _mm256_add_pd(e, one), big);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d q = Horner4(kLogPoly, z);
  const __m256d log_m = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), s),
                                      _mm256_mul_pd(s, _mm256_mul_pd(z, q)));
  const __m256d log_u1 = _mm256_add_pd(
      _mm256_mul_pd(e, _mm256_set1_pd(kLn2Hi)),
      _mm256_add_pd(log_m, _mm256_mul_pd(e, _mm256_set1_pd(kLn2Lo))));
  const __m256d mag =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_u1));

  const __m256d quadrant = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(u2, _mm256_set1_pd(4.0)), _mm256_set1_pd(0.5)));
  const __m256d theta = _mm256_mul_pd(
      _mm256_sub_pd(u2, _mm256_mul_pd(quadrant, _mm256_set1_pd(0.25))),
      _mm256_set1_pd(kTwoPi));
  const __m256d t2 = _mm256_mul_pd(theta, theta);
  const __m256d sp = Horner4(kSinPoly, t2);
  const __m256d cp = Horner4(kCosPoly, t2);
  const __m256d sin_t =
      _mm256_add_pd(theta, _mm256_mul_pd(theta, _mm256_mul_pd(t2, sp)));
  const __m256d cos_t = _mm256_add_pd(one, _mm256_mul_pd(t2, cp));
  const __m256d q1 = _mm256_cmp_pd(quadrant, one, _CMP_EQ_OQ);
  const __m256d q2 = _mm256_cmp_pd(quadrant, _mm256_set1_pd(2.0), _CMP_EQ_OQ);
  const __m256d q3 = _mm256_cmp_pd(quadrant, _mm256_set1_pd(3.0), _CMP_EQ_OQ);
  const __m256d odd = _mm256_or_pd(q1, q3);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d cosine = _mm256_xor_pd(_mm256_blendv_pd(cos_t, sin_t, odd),
                                       _mm256_and_pd(_mm256_or_pd(q1, q2), sign));
  const __m256d sine = _mm256_xor_pd(_mm256_blendv_pd(sin_t, cos_t, odd),
                                     _mm256_and_pd(_mm256_or_pd(q2, q3), sign));
  *g_cos = _mm256_mul_pd(mag, cosine);
  *g_sin = _mm256_mul_pd(mag, sine);
}

void BoxMullerRow(const double* u1, const double* u2, size_t count,
                  double* g_cos, double* g_sin) {
  size_t j = 0;
  // Two independent lane groups per iteration overlap the long divide,
  // sqrt and Horner latency chains.
  for (; j + 8 <= count; j += 8) {
    __m256d c0, s0, c1, s1;
    BoxMuller4(_mm256_loadu_pd(u1 + j), _mm256_loadu_pd(u2 + j), &c0, &s0);
    BoxMuller4(_mm256_loadu_pd(u1 + j + 4), _mm256_loadu_pd(u2 + j + 4), &c1,
               &s1);
    _mm256_storeu_pd(g_cos + j, c0);
    _mm256_storeu_pd(g_sin + j, s0);
    _mm256_storeu_pd(g_cos + j + 4, c1);
    _mm256_storeu_pd(g_sin + j + 4, s1);
  }
  for (; j + 4 <= count; j += 4) {
    __m256d c, s;
    BoxMuller4(_mm256_loadu_pd(u1 + j), _mm256_loadu_pd(u2 + j), &c, &s);
    _mm256_storeu_pd(g_cos + j, c);
    _mm256_storeu_pd(g_sin + j, s);
  }
  if (j < count) {
    simd_internal::kScalarOps.box_muller_row(u1 + j, u2 + j, count - j,
                                             g_cos + j, g_sin + j);
  }
}

/// Four bytes widened exactly to doubles.
inline __m256d BytesToDoubles(__m128i bytes) {
  return _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(bytes));
}

/// std::min(std::max(v, lo), hi) lane by lane: maxpd/minpd return their
/// second operand when the first comparison fails, as the scalar forms do.
inline __m256d Clamp4(__m256d v, __m256d lo, __m256d hi) {
  return _mm256_min_pd(hi, _mm256_max_pd(lo, v));
}

/// |v| by clearing the sign bit, as std::fabs.
inline __m256d Abs4(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Byte 0/1 flags for a 4-bit lane mask, little-endian.
constexpr uint32_t kLaneFlagBytes[16] = {
    0x00000000, 0x00000001, 0x00000100, 0x00000101, 0x00010000, 0x00010001,
    0x00010100, 0x00010101, 0x01000000, 0x01000001, 0x01000100, 0x01000101,
    0x01010000, 0x01010001, 0x01010100, 0x01010101,
};

size_t QuantizeNoisyPairs(const uint8_t* pixels, const double* g_cos,
                          const double* g_sin, size_t count,
                          double illumination, double stddev, double far,
                          uint8_t* bytes, uint32_t* flagged) {
  const __m256d illum = _mm256_set1_pd(illumination);
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d vfar = _mm256_set1_pd(far);
  const __m256d lo = _mm256_set1_pd(0.5);
  const __m256d hi = _mm256_set1_pd(255.5);
  const __m256d zero = _mm256_setzero_pd();
  // Even bytes (the cos pixels) to bytes 0-7, odd (the sin pixels) to 8-15.
  const __m128i split =
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
  auto noisy = [&](__m128i p, const double* g) {
    const __m256d v = _mm256_add_pd(
        _mm256_add_pd(BytesToDoubles(p), illum),
        _mm256_add_pd(zero, _mm256_mul_pd(sd, _mm256_loadu_pd(g))));
    return Clamp4(v, lo, hi);
  };
  auto near = [&](__m256d w0, __m256d w1) {
    auto one = [&](__m256d w) {
      const __m256d whole = _mm256_round_pd(w, _MM_FROUND_TO_ZERO);
      return _mm256_cmp_pd(Abs4(_mm256_sub_pd(_mm256_sub_pd(w, whole), lo)),
                           vfar, _CMP_GT_OQ);
    };
    return _mm256_movemask_pd(_mm256_or_pd(one(w0), one(w1)));
  };
  // Truncates the values of four pairs and interleaves them back into
  // pixel order as int16 (every value is in [0, 255], so packs are exact).
  auto words = [](__m256d cos4, __m256d sin4) {
    const __m128i c = _mm256_cvttpd_epi32(cos4);
    const __m128i s = _mm256_cvttpd_epi32(sin4);
    return _mm_packs_epi32(_mm_unpacklo_epi32(c, s),
                           _mm_unpackhi_epi32(c, s));
  };
  size_t n = 0;
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i p = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pixels + 2 * i)),
        split);
    const __m256d c0 = noisy(p, g_cos + i);
    const __m256d c1 = noisy(_mm_srli_si128(p, 4), g_cos + i + 4);
    const __m256d s0 = noisy(_mm_srli_si128(p, 8), g_sin + i);
    const __m256d s1 = noisy(_mm_srli_si128(p, 12), g_sin + i + 4);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bytes + 2 * i),
                     _mm_packus_epi16(words(c0, s0), words(c1, s1)));
    for (int bits = near(c0, s0) | near(c1, s1) << 4; bits != 0;
         bits &= bits - 1) {
      flagged[n++] = static_cast<uint32_t>(i) + __builtin_ctz(bits);
    }
  }
  if (i < count) {
    const size_t tail = simd_internal::kScalarOps.quantize_noisy_pairs(
        pixels + 2 * i, g_cos + i, g_sin + i, count - i, illumination, stddev,
        far, bytes + 2 * i, flagged + n);
    for (size_t k = n; k < n + tail; ++k) flagged[k] += static_cast<uint32_t>(i);
    n += tail;
  }
  return n;
}

uint32_t SelectiveMeanStripe(const uint8_t* px, size_t count, double a,
                             double threshold, bool update, double* mean,
                             uint8_t* mask) {
  if (!update && mask == nullptr) return 0;
  const __m256d keep = _mm256_set1_pd(1.0 - a);
  const __m256d va = _mm256_set1_pd(a);
  const __m256d thr = _mm256_set1_pd(threshold);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d top = _mm256_set1_pd(255.0);
  __m128i sums = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    int32_t raw;
    std::memcpy(&raw, px + i, 4);
    const __m256d p = BytesToDoubles(_mm_cvtsi32_si128(raw));
    __m256d m = _mm256_loadu_pd(mean + i);
    if (update) {
      const __m256d adapt =
          _mm256_cmp_pd(Abs4(_mm256_sub_pd(p, m)), thr, _CMP_LT_OQ);
      m = _mm256_blendv_pd(
          m, _mm256_add_pd(_mm256_mul_pd(keep, m), _mm256_mul_pd(va, p)),
          adapt);
      _mm256_storeu_pd(mean + i, m);
    }
    if (mask != nullptr) {
      const int fg = _mm256_movemask_pd(
          _mm256_cmp_pd(Abs4(_mm256_sub_pd(p, m)), thr, _CMP_GE_OQ));
      std::memcpy(mask + i, &kLaneFlagBytes[fg], 4);
      sums = _mm_add_epi32(sums, _mm256_cvttpd_epi32(Clamp4(m, zero, top)));
    }
  }
  sums = _mm_add_epi32(sums, _mm_srli_si128(sums, 8));
  sums = _mm_add_epi32(sums, _mm_srli_si128(sums, 4));
  uint32_t sum = static_cast<uint32_t>(_mm_cvtsi128_si32(sums));
  if (i < count) {
    sum += simd_internal::kScalarOps.selective_mean_stripe(
        px + i, count - i, a, threshold, update, mean + i,
        mask == nullptr ? nullptr : mask + i);
  }
  return sum;
}

}  // namespace

namespace simd_internal {

const SimdOpsTable kAvx2Ops = {
    ExpandedD2Row,      DirectD2Row,  DotRow,
    Axpy,               AxpyDiff,     RbfFromD2Row,
    NoiseUniformLanes,  BoxMullerRow, QuantizeNoisyPairs,
    SelectiveMeanStripe,
};

}  // namespace simd_internal
}  // namespace mivid

#endif  // MIVID_HAVE_AVX2
