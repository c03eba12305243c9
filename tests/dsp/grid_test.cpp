#include "dsp/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/angles.hpp"

namespace tagspin::dsp {
namespace {

using geom::circularDistance;
using geom::kTwoPi;

TEST(SampleCircular, CountAndSpacing) {
  const auto samples = sampleCircular([](double x) { return x; }, 8);
  ASSERT_EQ(samples.size(), 8u);
  EXPECT_DOUBLE_EQ(samples[0], 0.0);
  EXPECT_NEAR(samples[1], kTwoPi / 8.0, 1e-12);
  EXPECT_NEAR(samples[7], 7.0 * kTwoPi / 8.0, 1e-12);
}

// Sweep of peak locations: the circular maximizer must find them all,
// including peaks near the 0/2*pi seam.
class CircularMaxSweep : public ::testing::TestWithParam<double> {};

TEST_P(CircularMaxSweep, FindsVonMisesPeak) {
  const double center = GetParam();
  auto f = [&](double x) { return std::exp(4.0 * std::cos(x - center)); };
  const GridMax1D best = maximizeCircular(f, 360, 8).best;
  EXPECT_LT(circularDistance(best.x, center), 1e-3);
  EXPECT_NEAR(best.value, std::exp(4.0), std::exp(4.0) * 1e-5);
}

TEST_P(CircularMaxSweep, CoarseFineAgrees) {
  const double center = GetParam();
  auto f = [&](double x) { return std::exp(4.0 * std::cos(x - center)); };
  const GridMax1D exhaustive = maximizeCircular(f, 720, 8).best;
  const GridMax1D cf = maximizeCircularCoarseFine(f, 90, 64, 8);
  EXPECT_LT(circularDistance(cf.x, exhaustive.x), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(PeakPositions, CircularMaxSweep,
                         ::testing::Values(0.0, 0.01, 1.0, 2.2,
                                           std::numbers::pi, 4.4, 6.0,
                                           kTwoPi - 0.01));

TEST(MaximizeCircular, ResultInRange) {
  auto f = [](double x) { return std::cos(x - 6.1); };
  const GridMax1D best = maximizeCircular(f, 100, 6).best;
  EXPECT_GE(best.x, 0.0);
  EXPECT_LT(best.x, kTwoPi);
}

TEST(MaximizeCircular, ReturnsTheGridItScanned) {
  auto f = [](double x) { return std::sin(3.0 * x) + 0.1 * x; };
  const CircularMax max = maximizeCircular(f, 90, 6);
  EXPECT_EQ(max.grid, sampleCircular(f, 90));
}

TEST(MaximizeRect, FindsTwoDGaussian) {
  const double cx = 2.5, cy = 0.4;
  auto f = [&](double x, double y) {
    const double dx = geom::wrapToPi(x - cx);
    const double dy = y - cy;
    return std::exp(-(dx * dx + dy * dy) * 8.0);
  };
  const GridMax2D best = maximizeRect(f, -1.0, 1.0, 180, 41, 8);
  EXPECT_LT(circularDistance(best.x, cx), 1e-3);
  EXPECT_NEAR(best.y, cy, 1e-3);
  EXPECT_NEAR(best.value, 1.0, 1e-5);
}

TEST(MaximizeRect, RespectsYBounds) {
  // The unconstrained maximum sits at y = 2, outside [ -1, 1 ]; the search
  // must return the best feasible point (y = 1).
  auto f = [](double, double y) { return -(y - 2.0) * (y - 2.0); };
  const GridMax2D best = maximizeRect(f, -1.0, 1.0, 16, 21, 8);
  EXPECT_NEAR(best.y, 1.0, 1e-9);
}

TEST(MaximizeRect, SingleRowGrid) {
  auto f = [](double x, double) { return std::cos(x - 1.0); };
  const GridMax2D best = maximizeRect(f, 0.0, 0.0, 360, 1, 6);
  EXPECT_LT(circularDistance(best.x, 1.0), 1e-3);
  EXPECT_DOUBLE_EQ(best.y, 0.0);
}

TEST(MaximizeCircularCoarseFine, SharpPeakNeedsAdequateCoarseGrid) {
  // A very sharp peak: the two-stage search still finds it when the coarse
  // grid is at least as fine as the peak width.
  const double center = 3.0;
  auto f = [&](double x) { return std::exp(40.0 * (std::cos(x - center) - 1.0)); };
  const GridMax1D best = maximizeCircularCoarseFine(f, 180, 64, 8);
  EXPECT_LT(circularDistance(best.x, center), 1e-3);
}

}  // namespace
}  // namespace tagspin::dsp
