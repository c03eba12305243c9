// Angle arithmetic on the circle.
//
// Phase values reported by an RFID reader live on [0, 2*pi); angle spectra
// are searched on the same interval.  All helpers here are total functions
// (no domain restrictions on the input).
#pragma once

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

namespace tagspin::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Wrap an angle to [0, 2*pi).
inline double wrapTwoPi(double a) {
  // fmod(a, 2*pi) is exactly a when |a| < 2*pi, the usual case for a phase
  // or the difference of two, so only larger angles and NaN pay for the
  // libm call.  Inline, so that loops such as the Hampel filter's, 10 wraps
  // per read, make no call for it either.
  double r = std::abs(a) < kTwoPi ? a : std::fmod(a, kTwoPi);
  if (r < 0.0) r += kTwoPi;
  return r;
}

/// Wrap an angle to (-pi, pi].
inline double wrapToPi(double a) {
  double r = wrapTwoPi(a);
  if (r > kPi) r -= kTwoPi;
  return r;
}

/// Signed smallest rotation taking `from` to `to`, in (-pi, pi].
inline double circularDiff(double to, double from) {
  return wrapToPi(to - from);
}

/// Absolute angular separation in [0, pi].
double circularDistance(double a, double b);

/// Circular mean of a set of angles.  Returns 0 for an empty span or when
/// the resultant vector is (numerically) zero.
double circularMean(std::span<const double> angles);

/// Mean resultant length in [0, 1]; 1 means all angles identical.
double circularResultantLength(std::span<const double> angles);

double degToRad(double deg);
double radToDeg(double rad);

/// Unwrap a wrapped phase sequence: successive samples are shifted by
/// multiples of 2*pi so that no step exceeds pi in magnitude.  This is the
/// smoothing rule of paper section III-B generalised to arbitrary jumps
/// (the paper's rule handles a single +-2*pi step).
std::vector<double> unwrapPhases(std::span<const double> wrapped);

/// The paper's literal smoothing rule (section III-B): shift sample t by
/// -+2*pi when it jumps by more than +-pi relative to sample t-1.  Unlike
/// unwrapPhases the shift is not accumulated beyond one turn per step; kept
/// for fidelity and used in the Fig. 4 reproduction.
std::vector<double> smoothPhasesPaperRule(std::span<const double> wrapped);

}  // namespace tagspin::geom
