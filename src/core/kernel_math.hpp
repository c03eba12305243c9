// Inline branch-free math of the spectrum kernel (DESIGN.md section 11,
// "Math" and "Float scan"), in double for the kernel every profile value
// comes from and in float for the rectangle scan.  Plain arithmetic and bit
// operations only, so the lane loops of power_profile.cpp vectorize without
// intrinsics; always inlined, so each per-level entry point compiles them
// at its own instruction-set level.  The tests include this header to sweep
// the float helpers against libm and check the constants the scan's error
// bound is built from (kernel::FloatScanError).
#pragma once

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>

// The kernel's integer parts come from the bit pattern of x + 1.5*2^52
// (x + 1.5*2^23 in float), which rounds x to an integer only under strict
// IEEE arithmetic.
#ifdef __FAST_MATH__
#error "-ffast-math folds the kernel's 1.5*2^52 rounding shifter away"
#endif
#if FLT_EVAL_METHOD != 0
#error "the spectrum kernel needs each type evaluated in its own precision"
#endif

namespace tagspin::core::kernel {

// ---- double -------------------------------------------------------------

constexpr double kShifter = 0x1.8p52;  // 1.5 * 2^52

/// round-half-even(x) for |x| < 2^51, as a double and as the integer's
/// two's-complement bits (unsigned, so every operation on them is defined
/// and vectorizes).
struct Rounded {
  double value;
  uint64_t integer;
};

[[gnu::always_inline]] inline Rounded roundShift(double x) {
  const double t = x + kShifter;
  return {t - kShifter,
          std::bit_cast<uint64_t>(t) - std::bit_cast<uint64_t>(kShifter)};
}

/// All ones where `flag` (0 or 1) is set.  Selects are written as bit
/// masks: a floating-point ?: keeps GCC from vectorizing the lane loops
/// under its default -ftrapping-math.
[[gnu::always_inline]] inline uint64_t maskOf(uint64_t flag) {
  return uint64_t{0} - flag;
}

[[gnu::always_inline]] inline double select(uint64_t mask, double ifSet,
                                            double ifClear) {
  return std::bit_cast<double>((std::bit_cast<uint64_t>(ifSet) & mask) |
                               (std::bit_cast<uint64_t>(ifClear) & ~mask));
}

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kInvTwoPi = 1.0 / kTwoPi;
// kTwoPi = kTwoPiHi + kTwoPiLo exactly; n * kTwoPiHi is exact for
// |n| < 2^22 (kTwoPiHi has 31 significant bits).
constexpr double kTwoPiHi = 0x1.921fb544p+2;
constexpr double kTwoPiLo = kTwoPi - kTwoPiHi;

/// geom::wrapToPi, bit for bit away from the +-pi seam, for
/// |x| < 2^22 turns.  x - n*2pi with n = round(x / 2pi) is exact here, as
/// fmod is; wrapToPi then maps a negative input that lands in (-pi, 0)
/// through (r + 2pi) - 2pi, which rounds, and so does this.  The weights
/// need that rounding: with phaseNoiseStd = 1e-3 one ulp of residual moves
/// a weight by ~1e-11 relative.
[[gnu::always_inline]] inline double wrapPhase(double x) {
  const double n = roundShift(x * kInvTwoPi).value;
  const double y = (x - n * kTwoPiHi) - n * kTwoPiLo;
  const double viaPositive = (y + kTwoPi) - kTwoPi;
  const uint64_t bothNegative =
      (std::bit_cast<uint64_t>(x) & std::bit_cast<uint64_t>(y)) >> 63;
  return select(maskOf(bothNegative), viaPositive, y);
}

/// fdlibm's __kernel_sin (iy = 1) on [-pi/4, pi/4] for the reduced
/// argument x + y.
[[gnu::always_inline]] inline double kernelSin(double x, double y) {
  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  const double z = x * x;
  const double w = z * z;
  const double r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
  const double v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * S1);
}

/// fdlibm's __kernel_cos on [-pi/4, pi/4] for the reduced argument x + y.
[[gnu::always_inline]] inline double kernelCos(double x, double y) {
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
  const double hz = 0.5 * z;
  const double v = 1.0 - hz;
  return v + (((1.0 - v) - hz) + (z * r - x * y));
}

// pi/2 = kPio2Hi + kPio2Lo (fdlibm's pio2_1, pio2_1t); n * kPio2Hi is
// exact for |n| < 2^20.
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;
constexpr double kPio2Lo = 6.07710050650619224932e-11;

/// sin and cos of x, |x| < 2^20 * pi/2: a two-constant quadrant reduction
/// (fdlibm's medium path without its cancellation retry) and the fdlibm
/// kernels, the quadrant applied by swapping and sign-flipping bits.
[[gnu::always_inline]] inline void sinCos(double x, double& s, double& c) {
  const Rounded q = roundShift(x * kInvPio2);
  const double hi = x - q.value * kPio2Hi;  // exact
  const double lo = q.value * kPio2Lo;
  const double r = hi - lo;
  const double tail = (hi - r) - lo;
  const uint64_t sinBits = std::bit_cast<uint64_t>(kernelSin(r, tail));
  const uint64_t cosBits = std::bit_cast<uint64_t>(kernelCos(r, tail));
  const uint64_t n = q.integer;
  const uint64_t swap = maskOf(n & 1);  // odd quadrant: swap
  s = std::bit_cast<double>(((sinBits & ~swap) | (cosBits & swap)) ^
                            ((n & 2) << 62));
  c = std::bit_cast<double>(((cosBits & ~swap) | (sinBits & swap)) ^
                            (((n + 1) & 2) << 62));
}

/// e^x for x <= 0 (the likelihood weights), returning exactly 0 wherever
/// std::exp underflows to 0 and NaN for NaN.  x = k ln2 + r with
/// |r| <= ln2/2, e^r by its Taylor series to r^13 (truncation < 2^-57),
/// and 2^k applied as two normal factors so a subnormal result rounds
/// once.
[[gnu::always_inline]] inline double expKernel(double x) {
  constexpr double kLog2e = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 bits
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // |x| > 1000 (but not NaN) becomes -1000: e^-1000 == 0, and k stays in
  // range.
  constexpr uint64_t kLimit = std::bit_cast<uint64_t>(1000.0);
  constexpr uint64_t kInf = std::bit_cast<uint64_t>(
      std::numeric_limits<double>::infinity());
  const uint64_t magnitude = std::bit_cast<uint64_t>(x) & (kInf | (kInf - 1));
  const uint64_t beyond =
      ((kLimit - magnitude) >> 63) & (((magnitude - kInf - 1) >> 63));
  x = select(maskOf(beyond), -1000.0, x);
  const Rounded k = roundShift(x * kLog2e);
  const double r = (x - k.value * kLn2Hi) - k.value * kLn2Lo;
  // q = (e^r - 1 - r) / r^2 = sum_k r^k / (k + 2)!, k = 0..11, by
  // Estrin's scheme: short dependency chains, so the lanes overlap.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double a0 = 0.5 + r * (1.0 / 6.0);
  const double a1 = 1.0 / 24.0 + r * (1.0 / 120.0);
  const double a2 = 1.0 / 720.0 + r * (1.0 / 5040.0);
  const double a3 = 1.0 / 40320.0 + r * (1.0 / 362880.0);
  const double a4 = 1.0 / 3628800.0 + r * (1.0 / 39916800.0);
  const double a5 = 1.0 / 479001600.0 + r * (1.0 / 6227020800.0);
  const double b0 = a0 + r2 * a1;
  const double b1 = a2 + r2 * a3;
  const double b2 = a4 + r2 * a5;
  const double q = (b0 + r4 * b1) + r8 * b2;
  const double p = 1.0 + (r + r2 * q);
  // k1 = k >> 1 (arithmetic), k2 = k - k1; both in [-722, 0].
  const uint64_t k1 = (k.integer >> 1) | (k.integer & (uint64_t{1} << 63));
  const uint64_t k2 = k.integer - k1;
  const double scale1 = std::bit_cast<double>((k1 + 1023) << 52);
  const double scale2 = std::bit_cast<double>((k2 + 1023) << 52);
  return (p * scale1) * scale2;
}

// ---- float (the rectangle scan) -------------------------------------------
//
// Each helper only has to stay within the error constant the scan's bound
// uses for it (FloatScanError), not to match libm's bits: the scan's bound
// covers the difference, and the scan's values are never an answer.

constexpr float kShifterF = 0x1.8p23f;  // 1.5 * 2^23

struct RoundedF {
  float value;
  uint32_t integer;
};

/// round-half-even(x) for |x| < 2^22.
[[gnu::always_inline]] inline RoundedF roundShift(float x) {
  const float t = x + kShifterF;
  return {t - kShifterF,
          std::bit_cast<uint32_t>(t) - std::bit_cast<uint32_t>(kShifterF)};
}

[[gnu::always_inline]] inline uint32_t maskOf(uint32_t flag) {
  return uint32_t{0} - flag;
}

[[gnu::always_inline]] inline float select(uint32_t mask, float ifSet,
                                           float ifClear) {
  return std::bit_cast<float>((std::bit_cast<uint32_t>(ifSet) & mask) |
                              (std::bit_cast<uint32_t>(ifClear) & ~mask));
}

// 2pi = kTwoPiHiF + kTwoPiLoF to ~2^-42; kTwoPiHiF has 12 significant
// bits, so n * kTwoPiHiF is exact for |n| < 2^12.
constexpr float kInvTwoPiF = static_cast<float>(kInvTwoPi);
constexpr float kTwoPiHiF = 0x1.9220p+2f;  // 3217 * 2^-9
constexpr float kTwoPiLoF = static_cast<float>(kTwoPi - 0x1.9220p+2);

/// x - 2pi * round(x / 2pi) for |x| < 2^12 turns: a representative of x in
/// [-pi, pi] (up to rounding), the seam not fixed -- the weights and
/// phasors it feeds are 2pi-periodic.
[[gnu::always_inline]] inline float wrapPhase(float x) {
  const float n = roundShift(x * kInvTwoPiF).value;
  return (x - n * kTwoPiHiF) - n * kTwoPiLoF;
}

// pi/2 = kPio2AF + kPio2BF + kPio2CF; kPio2AF has 8 significant bits and
// kPio2BF 11, so n * kPio2AF and n * kPio2BF are exact for |n| < 2^13.
constexpr float kInvPio2F = static_cast<float>(kInvPio2);
constexpr float kPio2AF = 0x1.92p0f;              // 201 * 2^-7
constexpr float kPio2BF = 0x1.fb4p-12f;           // 2029 * 2^-22
constexpr float kPio2CF = static_cast<float>(
    std::numbers::pi / 2.0 - 0x1.92p0 - 0x1.fb4p-12);

/// sin and cos of x, |x| <= kMaxScanPhase: a three-constant quadrant
/// reduction and minimax polynomials on [-pi/4, pi/4] (Cephes sinf/cosf),
/// the quadrant applied by swapping and sign-flipping bits as in double.
[[gnu::always_inline]] inline void sinCos(float x, float& s, float& c) {
  const RoundedF q = roundShift(x * kInvPio2F);
  const float r = ((x - q.value * kPio2AF) - q.value * kPio2BF) -
                  q.value * kPio2CF;
  const float z = r * r;
  const float sinR =
      r + r * z *
              (-1.6666654611e-1f +
               z * (8.3321608736e-3f + z * -1.9515295891e-4f));
  const float cosR =
      (z * z *
           (4.166664568298827e-2f +
            z * (-1.388731625493765e-3f + z * 2.443315711809948e-5f)) -
       0.5f * z) +
      1.0f;
  const uint32_t sinBits = std::bit_cast<uint32_t>(sinR);
  const uint32_t cosBits = std::bit_cast<uint32_t>(cosR);
  const uint32_t n = q.integer;
  const uint32_t swap = maskOf(n & 1);
  s = std::bit_cast<float>(((sinBits & ~swap) | (cosBits & swap)) ^
                           ((n & 2) << 30));
  c = std::bit_cast<float>(((cosBits & ~swap) | (sinBits & swap)) ^
                           (((n + 1) & 2) << 30));
}

/// e^x for x <= 0: NaN for NaN, and for x < -87 the value e^-87 (below
/// 2^-125, so within FloatScanError::kExp of the true value).  x = k ln2 +
/// r with |r| <= ln2/2 (Cody-Waite, Cephes' split), e^r = 1 + r + r^2 P(r)
/// with Cephes' degree-5 expf polynomial, and 2^k from its bits.
[[gnu::always_inline]] inline float expKernel(float x) {
  constexpr float kLog2eF = 1.44269504088896341f;
  constexpr float kLn2HiF = 0.693359375f;
  constexpr float kLn2LoF = -2.12194440e-4f;
  constexpr uint32_t kLimit = std::bit_cast<uint32_t>(87.0f);
  constexpr uint32_t kInf =
      std::bit_cast<uint32_t>(std::numeric_limits<float>::infinity());
  const uint32_t magnitude = std::bit_cast<uint32_t>(x) & (kInf | (kInf - 1));
  const uint32_t beyond =
      ((kLimit - magnitude) >> 31) & ((magnitude - kInf - 1) >> 31);
  x = select(maskOf(beyond), -87.0f, x);
  const RoundedF k = roundShift(x * kLog2eF);
  const float r = (x - k.value * kLn2HiF) - k.value * kLn2LoF;
  const float p =
      5.0000001201e-1f +
      r * (1.6666665459e-1f +
           r * (4.1665795894e-2f +
                r * (8.3334519073e-3f +
                     r * (1.3981999507e-3f + r * 1.9875691500e-4f))));
  const float er = 1.0f + (r + r * r * p);
  // k in [-126, 0]: 2^k is a normal float.
  return er * std::bit_cast<float>((k.integer + 127) << 23);
}

// ---- the phase terms, one expression for both types -------------------

/// The steered phase of P and Q: rel + k r cos(a - phi) * scale, with
/// cos(a - phi) = cosA cos(phi) + sinA sin(phi).
template <class T>
[[gnu::always_inline]] inline T steeredPhase(T rel, T kr, T cosA, T sinA,
                                             T cosPhi, T sinPhi, T scale) {
  const T cosAmP = cosA * cosPhi + sinA * sinPhi;
  return rel + kr * cosAmP * scale;
}

/// R's residual before wrapping: rel - kr scale (cos(a_0 - phi) -
/// cos(a - phi)), with krScale = kr * scale.
template <class T>
[[gnu::always_inline]] inline T residualPhase(T rel, T krScale, T cosA,
                                              T sinA, T cosPhi, T sinPhi,
                                              T cosRefMinusPhi) {
  const T cosAmP = cosA * cosPhi + sinA * sinPhi;
  return rel - krScale * (cosRefMinusPhi - cosAmP);
}

// ---- the float scan's error constants (DESIGN.md section 11) -------------

/// The constants of the scan's per-cell error bound, each derived in
/// DESIGN.md section 11 ("Float scan") and checked in
/// tests/core/rect_scan_test.cpp.  u is float's unit roundoff.
struct FloatScanError {
  static constexpr double kUnit = 0x1p-24;
  /// Float sin/cos against the exact values, per component, for every
  /// float |x| <= kMaxPhase (dense sweep against libm in double).
  static constexpr double kSinCos = 0x1p-22;
  /// Float e^x against the exact value for every float x <= 0.
  static constexpr double kExp = 0x1p-22;
  /// A phase term (Q's steered phase, or R's residual after its wrap)
  /// is within (kPhaseUlps * M + kPhaseFloorUlps) * u of the value in
  /// exact arithmetic on the double inputs, M = |rel| + 2 k r |scale|.
  static constexpr double kPhaseUlps = 9.0;
  static constexpr double kPhaseFloorUlps = 4.0;
  /// R's centred residual adds the centre's rounding to float, the
  /// subtraction and its wrap: at most this many u beyond the residual's
  /// and the centre's own errors.
  static constexpr double kCentredUlps = 16.0;
  /// e^x's argument -d^2 / (2 sigma^2) carries three roundings; its effect
  /// on the weight is at most 3u * max(t e^-t) = 3u/e < 2u.
  static constexpr double kWeightArgUlps = 2.0;
  /// Largest |phase| the float reductions are exact enough for: the wrap
  /// needs |n| < 2^12 turns, the sin/cos reduction |q| < 2^13 quadrants.
  static constexpr double kMaxPhase = 8192.0;
  /// Entries per float partial sum before it joins the double accumulator.
  static constexpr size_t kChunk = 16;
};

}  // namespace tagspin::core::kernel
