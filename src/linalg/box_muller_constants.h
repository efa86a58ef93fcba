// Shared constants of the polynomial Box-Muller row (see simd.h).
//
// For a pair (u1, u2) the row computes mag = sqrt(-2 log u1) and
// (mag cos 2 pi u2, mag sin 2 pi u2) without libm:
//  * log u1 = e ln2 + log m, with u1 = m 2^e split through the exponent
//    field and m in [sqrt(1/2), sqrt(2)). log m = 2 atanh(s) with
//    s = (m - 1) / (m + 1), |s| <= 0.1716, summed as the atanh series
//    2s + s z Q(z), z = s^2, through the z^10 term (truncation < 1e-18
//    relative). m - 1 is exact, so the log keeps its relative accuracy
//    as u1 -> 1, where sqrt amplifies absolute errors. e ln2 uses a
//    two-part ln 2 whose high part times any exponent is exact.
//  * 2 pi u2 = q pi/2 + theta with q = floor(4 u2 + 1/2) and
//    theta = (u2 - q/4) 2 pi, |theta| <= pi/4 (u2 - q/4 is exact).
//    sin and cos of theta are Taylor polynomials through theta^17 and
//    theta^18 (truncation < 1e-19); the quadrant swaps and negates them.
// Every step is a plain IEEE operation (no FMA, no libm, sqrt correctly
// rounded), so the scalar and AVX2 tiers execute the same op sequence and
// agree bit for bit.

#ifndef MIVID_LINALG_BOX_MULLER_CONSTANTS_H_
#define MIVID_LINALG_BOX_MULLER_CONSTANTS_H_

#include <cstdint>

namespace mivid {
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

// Q(z) = sum_k 2 z^(k-1) / (2k + 1), k = 10 .. 1 (Horner order).
constexpr int kLogTerms = 10;
constexpr double kLogPoly[kLogTerms] = {
    2.0 / 21.0, 2.0 / 19.0, 2.0 / 17.0, 2.0 / 15.0, 2.0 / 13.0,
    2.0 / 11.0, 2.0 / 9.0,  2.0 / 7.0,  2.0 / 5.0,  2.0 / 3.0,
};

// sin theta = theta + theta z S(z); S's coefficients (-1)^k / (2k+1)!,
// k = 8 .. 1.
constexpr int kSinTerms = 8;
constexpr double kSinPoly[kSinTerms] = {
    1.0 / 355687428096000.0,  // 1/17!
    -1.0 / 1307674368000.0,   // -1/15!
    1.0 / 6227020800.0,       // 1/13!
    -1.0 / 39916800.0,        // -1/11!
    1.0 / 362880.0,           // 1/9!
    -1.0 / 5040.0,            // -1/7!
    1.0 / 120.0,              // 1/5!
    -1.0 / 6.0,               // -1/3!
};

// cos theta = 1 + z C(z); C's coefficients (-1)^k / (2k)!, k = 9 .. 1.
constexpr int kCosTerms = 9;
constexpr double kCosPoly[kCosTerms] = {
    -1.0 / 6402373705728000.0,  // -1/18!
    1.0 / 20922789888000.0,     // 1/16!
    -1.0 / 87178291200.0,       // -1/14!
    1.0 / 479001600.0,          // 1/12!
    -1.0 / 3628800.0,           // -1/10!
    1.0 / 40320.0,              // 1/8!
    -1.0 / 720.0,               // -1/6!
    1.0 / 24.0,                 // 1/4!
    -0.5,                       // -1/2!
};

}  // namespace box_muller
}  // namespace mivid

#endif  // MIVID_LINALG_BOX_MULLER_CONSTANTS_H_
