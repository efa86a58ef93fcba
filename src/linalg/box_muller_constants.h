// Shared constants of the polynomial Box-Muller row (see simd.h).
//
// For a pair (u1, u2) the row computes mag = sqrt(-2 log u1) and
// (mag cos 2 pi u2, mag sin 2 pi u2) without libm:
//  * log u1 = e ln2 + log m, with u1 = m 2^e split through the exponent
//    field and m in [sqrt(1/2), sqrt(2)). log m = 2 atanh(s) with
//    s = (m - 1) / (m + 1), |s| <= 0.1716, summed as the atanh series
//    2s + s z Q(z), z = s^2 <= 0.02944, through the z^4 term. m - 1 is
//    exact, so the log keeps its relative accuracy as u1 -> 1, where sqrt
//    amplifies absolute errors. e ln2 uses a two-part ln 2 whose high
//    part times any exponent is exact.
//  * 2 pi u2 = q pi/2 + theta with q = floor(4 u2 + 1/2) and
//    theta = (u2 - q/4) 2 pi, |theta| <= pi/4 (u2 - q/4 is exact).
//    sin and cos of theta are Taylor polynomials through theta^11 and
//    theta^10; the quadrant swaps and negates them.
// Every step is a plain IEEE operation (no FMA, no libm, sqrt correctly
// rounded), so the scalar and AVX2 tiers execute the same op sequence and
// agree bit for bit.
//
// The error bound, per value g = mag * (cos or sin), for u1 in
// [1e-300, 1] and u2 in [0, 1):
//  * The log. The omitted atanh terms are positive and shrink by at
//    least z per term, so they sum to at most
//    z^5 / 11 / (1 - z) = 2.08e-9 of log m relative, and to at most
//    2 s^11 / 11 / (1 - z) = 7.1e-10 absolute. With dmag = dlog / mag:
//    for u1 >= sqrt(1/2), |log u1| = mag^2 / 2 and mag <= sqrt(ln 2), so
//    |dmag| <= sqrt(ln 2) / 2 * 2.08e-9 = 8.7e-10; below it
//    mag > sqrt(ln 2) and |dmag| <= 7.1e-10 / sqrt(ln 2) = 8.6e-10.
//  * The angle. Both Taylor series alternate with shrinking terms on
//    |theta| <= pi/4, so each error is at most its first omitted term:
//    (pi/4)^13 / 13! = 7.0e-12 for sin and (pi/4)^12 / 12! = 1.15e-10
//    for cos. Each value uses one of the two, times mag <= 37.17
//    (u1 = 1e-300): at most 4.28e-9.
//  * Rounding, in the row and in libm's reference (whose angle
//    2.0 * M_PI * u2 is itself rounded): a few ulp of |g| <= 37.17, under
//    1e-13 (the 20-term predecessor of these polynomials measured 2.6e-14
//    in all).
// Sum: 8.7e-10 + 4.28e-9 + 1e-13 = 5.15e-9, so kBoxMullerMaxAbsError =
// 6e-9; BoxMullerRowTest measures 4.27e-9 at u1 ~ 2e-300, theta ~ pi/4.
// Callers that need libm's exact values near a decision boundary widen
// their margin by this bound (see Renderer's noise quantization).

#ifndef MIVID_LINALG_BOX_MULLER_CONSTANTS_H_
#define MIVID_LINALG_BOX_MULLER_CONSTANTS_H_

#include <cstdint>

namespace mivid {

/// Bound on |box_muller_row - Rng::BoxMullerPair| per value (derived
/// above).
constexpr double kBoxMullerMaxAbsError = 6e-9;

namespace box_muller {

constexpr uint64_t kMantissaMask = 0x000fffffffffffffULL;
constexpr uint64_t kOneBits = 0x3ff0000000000000ULL;  // exponent of 1.0
/// OR-ing a biased exponent E into these bits gives the double 2^52 + E.
constexpr uint64_t kTwo52Bits = 0x4330000000000000ULL;
constexpr double kTwo52PlusBias = 4503599627371519.0;  // 2^52 + 1023

constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 bits: e*hi exact
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kTwoPi = 6.28318530717958647692;

// Q(z) = sum_k 2 z^(k-1) / (2k + 1), k = 4 .. 1 (Horner order).
constexpr int kLogTerms = 4;
constexpr double kLogPoly[kLogTerms] = {
    2.0 / 9.0,
    2.0 / 7.0,
    2.0 / 5.0,
    2.0 / 3.0,
};

// sin theta = theta + theta z S(z); S's coefficients (-1)^k / (2k+1)!,
// k = 5 .. 1.
constexpr int kSinTerms = 5;
constexpr double kSinPoly[kSinTerms] = {
    -1.0 / 39916800.0,  // -1/11!
    1.0 / 362880.0,     // 1/9!
    -1.0 / 5040.0,      // -1/7!
    1.0 / 120.0,        // 1/5!
    -1.0 / 6.0,         // -1/3!
};

// cos theta = 1 + z C(z); C's coefficients (-1)^k / (2k)!, k = 5 .. 1.
constexpr int kCosTerms = 5;
constexpr double kCosPoly[kCosTerms] = {
    -1.0 / 3628800.0,  // -1/10!
    1.0 / 40320.0,     // 1/8!
    -1.0 / 720.0,      // -1/6!
    1.0 / 24.0,        // 1/4!
    -0.5,              // -1/2!
};

}  // namespace box_muller
}  // namespace mivid

#endif  // MIVID_LINALG_BOX_MULLER_CONSTANTS_H_
