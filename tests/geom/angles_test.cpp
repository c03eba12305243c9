#include "geom/angles.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace tagspin::geom {
namespace {

TEST(WrapTwoPi, BasicValues) {
  EXPECT_DOUBLE_EQ(wrapTwoPi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrapTwoPi(kTwoPi), 0.0);
  EXPECT_DOUBLE_EQ(wrapTwoPi(-0.1), kTwoPi - 0.1);
  EXPECT_NEAR(wrapTwoPi(5.0 * kTwoPi + 1.0), 1.0, 1e-12);
  EXPECT_NEAR(wrapTwoPi(-7.0 * kTwoPi - 1.0), kTwoPi - 1.0, 1e-12);
}

TEST(WrapToPi, BasicValues) {
  EXPECT_DOUBLE_EQ(wrapToPi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrapToPi(kPi), kPi);         // pi maps to +pi, not -pi
  EXPECT_NEAR(wrapToPi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrapToPi(-kPi - 0.1), kPi - 0.1, 1e-12);
}

TEST(WrapTwoPi, SkippedFmodChangesNoBit) {
  // wrapTwoPi calls fmod only when |a| >= 2*pi or a is NaN; below that
  // fmod returns a exactly, so every result must equal the fmod form's,
  // bit for bit: at the signed zeros, tiny and huge angles, and one ulp
  // either side of +-pi and +-2*pi.
  const auto viaFmod = [](double a) {
    double r = std::fmod(a, kTwoPi);
    if (r < 0.0) r += kTwoPi;
    return r;
  };
  std::vector<double> angles = {0.0, 1e-300, 5e-324, 1e300, 1.0, 40.0};
  for (const double edge : {kPi, kTwoPi, 2.0 * kTwoPi}) {
    angles.push_back(edge);
    angles.push_back(std::nextafter(edge, 0.0));
    angles.push_back(std::nextafter(edge, 100.0));
  }
  for (double step = -20.0; step < 20.0; step += 0.0137) {
    angles.push_back(step);
  }
  const size_t n = angles.size();
  for (size_t k = 0; k < n; ++k) angles.push_back(-angles[k]);
  for (const double a : angles) {
    EXPECT_EQ(std::bit_cast<uint64_t>(wrapTwoPi(a)),
              std::bit_cast<uint64_t>(viaFmod(a)))
        << a;
  }
  EXPECT_TRUE(std::isnan(wrapTwoPi(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(wrapTwoPi(std::numeric_limits<double>::infinity())));
}

// Property sweep: wrapping is idempotent, range-correct, and preserves the
// angle modulo 2*pi.
class WrapSweep : public ::testing::TestWithParam<double> {};

TEST_P(WrapSweep, TwoPiRangeAndIdempotence) {
  const double a = GetParam();
  const double w = wrapTwoPi(a);
  EXPECT_GE(w, 0.0);
  EXPECT_LT(w, kTwoPi);
  EXPECT_NEAR(wrapTwoPi(w), w, 1e-12);
  EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
}

TEST_P(WrapSweep, ToPiRangeAndIdempotence) {
  const double a = GetParam();
  const double w = wrapToPi(a);
  EXPECT_GT(w, -kPi - 1e-12);
  EXPECT_LE(w, kPi);
  EXPECT_NEAR(wrapToPi(w), w, 1e-12);
  EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ManyAngles, WrapSweep,
                         ::testing::Values(-100.0, -7.5, -kTwoPi, -kPi, -1.0,
                                           -1e-9, 0.0, 1e-9, 0.5, kPi,
                                           kPi + 1e-9, kTwoPi, 6.5, 42.0,
                                           1234.5678));

TEST(CircularDiff, SignedSmallestRotation) {
  EXPECT_NEAR(circularDiff(0.1, 0.0), 0.1, 1e-12);
  EXPECT_NEAR(circularDiff(0.0, 0.1), -0.1, 1e-12);
  // Across the wrap boundary.
  EXPECT_NEAR(circularDiff(0.1, kTwoPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(circularDiff(kTwoPi - 0.1, 0.1), -0.2, 1e-12);
}

TEST(CircularDistance, SymmetricAndBounded) {
  for (double a = 0.0; a < kTwoPi; a += 0.3) {
    for (double b = 0.0; b < kTwoPi; b += 0.7) {
      const double d = circularDistance(a, b);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, kPi + 1e-12);
      EXPECT_NEAR(d, circularDistance(b, a), 1e-12);
    }
  }
}

TEST(CircularMean, SimpleCases) {
  const std::vector<double> same{1.0, 1.0, 1.0};
  EXPECT_NEAR(circularMean(same), 1.0, 1e-12);

  // Straddling the wrap: mean of 350 and 10 degrees is 0, not 180.
  const std::vector<double> wrap{degToRad(350.0), degToRad(10.0)};
  EXPECT_NEAR(wrapToPi(circularMean(wrap)), 0.0, 1e-12);

  EXPECT_DOUBLE_EQ(circularMean({}), 0.0);
}

TEST(CircularResultantLength, Concentration) {
  const std::vector<double> tight{0.0, 0.01, -0.01};
  EXPECT_GT(circularResultantLength(tight), 0.99);
  const std::vector<double> spread{0.0, kPi / 2.0, kPi, 3.0 * kPi / 2.0};
  EXPECT_NEAR(circularResultantLength(spread), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(circularResultantLength({}), 0.0);
}

TEST(DegRad, RoundTrip) {
  EXPECT_DOUBLE_EQ(degToRad(180.0), kPi);
  EXPECT_DOUBLE_EQ(radToDeg(kPi / 2.0), 90.0);
  for (double d = -720.0; d <= 720.0; d += 45.0) {
    EXPECT_NEAR(radToDeg(degToRad(d)), d, 1e-10);
  }
}

TEST(UnwrapPhases, RemovesWrapJumps) {
  // A linear ramp wrapped to [0, 2*pi) unwraps back to a ramp.
  std::vector<double> wrapped;
  for (int i = 0; i < 100; ++i) {
    wrapped.push_back(wrapTwoPi(0.2 * i));
  }
  const auto unwrapped = unwrapPhases(wrapped);
  for (size_t i = 1; i < unwrapped.size(); ++i) {
    EXPECT_NEAR(unwrapped[i] - unwrapped[i - 1], 0.2, 1e-12);
  }
}

TEST(UnwrapPhases, StartsAtFirstSample) {
  const std::vector<double> wrapped{5.0, 5.5, 6.0};
  const auto unwrapped = unwrapPhases(wrapped);
  EXPECT_DOUBLE_EQ(unwrapped[0], 5.0);
}

TEST(UnwrapPhases, DescendingRamp) {
  std::vector<double> wrapped;
  for (int i = 0; i < 100; ++i) {
    wrapped.push_back(wrapTwoPi(-0.3 * i));
  }
  const auto unwrapped = unwrapPhases(wrapped);
  for (size_t i = 1; i < unwrapped.size(); ++i) {
    EXPECT_NEAR(unwrapped[i] - unwrapped[i - 1], -0.3, 1e-12);
  }
}

TEST(SmoothPhasesPaperRule, MatchesPaperExample) {
  // The section III-B rule: shift by -+2*pi on jumps exceeding +-pi.
  const std::vector<double> seq{6.0, 0.2, 0.5, 6.2, 5.9};
  const auto smoothed = smoothPhasesPaperRule(seq);
  // 6.0 -> 0.2 jumps by -5.8 < -pi: shift up by 2*pi.
  EXPECT_NEAR(smoothed[1], 0.2 + kTwoPi, 1e-12);
  EXPECT_NEAR(smoothed[2], 0.5 + kTwoPi, 1e-12);
  // 0.5+2pi -> 6.2: small step once aligned, stays.
  EXPECT_NEAR(smoothed[3], 6.2, 1e-12);
  EXPECT_NEAR(smoothed[4], 5.9, 1e-12);
}

TEST(SmoothPhasesPaperRule, EmptyAndSingle) {
  EXPECT_TRUE(smoothPhasesPaperRule({}).empty());
  const std::vector<double> one{1.5};
  EXPECT_EQ(smoothPhasesPaperRule(one), one);
}

}  // namespace
}  // namespace tagspin::geom
