#include "dsp/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

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

// ---- The tie rule the 3D search's bit-identity rests on: the grid
// maximum is the first strict maximum in azimuth-major order (azimuth
// outer, row inner, from cell (0, 0)), and screenRect picks the same cell
// whatever bounds it is given, as long as they hold.

/// An objective that is `low` everywhere but at the listed cells of the
/// (nx x ny) grid on [0, 2*pi) x [ymin, ymax].
struct CellObjective {
  RectGrid grid;
  std::vector<std::pair<size_t, size_t>> peaks;  // (i, j)
  double low = 0.25;
  double high = 1.0;

  double operator()(double x, double y) const {
    for (const auto& [i, j] : peaks) {
      if (x == circularGridAngle(i, grid.nx) && y == grid.y(j)) return high;
    }
    return low;
  }

  /// The grid values, row by row (RectGrid's layout).
  std::vector<double> values() const {
    std::vector<double> out(grid.nx * grid.ny);
    for (size_t j = 0; j < grid.ny; ++j) {
      for (size_t i = 0; i < grid.nx; ++i) {
        out[j * grid.nx + i] =
            (*this)(circularGridAngle(i, grid.nx), grid.y(j));
      }
    }
    return out;
  }
};

TEST(MaximizeRect, ConstantObjectivePicksTheFirstCell) {
  const GridMax2D best =
      maximizeRect([](double, double) { return 0.5; }, 0.2, 1.2, 36, 6, 0);
  EXPECT_EQ(best.x, 0.0);
  EXPECT_EQ(best.y, 0.2);
  EXPECT_EQ(best.value, 0.5);
}

TEST(MaximizeRect, EqualPeaksPickTheFirstInAzimuthMajorOrder) {
  // Peak A at (i 7, row 4) comes before peak B at (i 20, row 1) in
  // azimuth-major order, though B's row comes first.
  const RectGrid grid(0.0, 1.5, 36, 6);
  const CellObjective f{grid, {{20, 1}, {7, 4}}};
  const GridMax2D best = maximizeRect(f, 0.0, 1.5, 36, 6, 0);
  // x comes back wrapped to [0, 2*pi), as fmod(x + 2*pi, 2*pi).
  EXPECT_EQ(best.x, std::fmod(circularGridAngle(7, 36) + kTwoPi, kTwoPi));
  EXPECT_EQ(best.y, grid.y(4));
  EXPECT_EQ(best.value, 1.0);
}

TEST(ScreenRect, PicksMaximizeRectsCellUnderZeroAndUnderWideBounds) {
  const RectGrid grid(0.0, 1.5, 36, 6);
  const CellObjective constant{grid, {}, 0.5, 0.5};
  const CellObjective twoPeaks{grid, {{20, 1}, {7, 4}}};
  const CellObjective cornerTie{grid, {{0, 0}, {0, 5}, {35, 0}}};
  for (const CellObjective* f : {&constant, &twoPeaks, &cornerTie}) {
    const GridMax2D want = maximizeRect(*f, grid.ymin, grid.ymax, grid.nx,
                                        grid.ny, 0);
    const std::vector<double> exact = f->values();
    const std::vector<double> zero(exact.size(), 0.0);
    const std::vector<double> wide(exact.size(), 10.0);
    size_t evaluated = 0;
    // Zero refine rounds: refineRect only wraps x, as maximizeRect does.
    GridMax2D got =
        refineRect(*f, grid, screenRect(*f, grid, exact, zero, &evaluated), 0);
    EXPECT_EQ(got.x, want.x);
    EXPECT_EQ(got.y, want.y);
    EXPECT_EQ(got.value, want.value);
    // Zero bounds evaluate exactly the cells that tie the maximum.
    EXPECT_EQ(evaluated,
              static_cast<size_t>(std::count(exact.begin(), exact.end(),
                                             want.value)));
    got = refineRect(*f, grid, screenRect(*f, grid, exact, wide, &evaluated),
                     0);
    EXPECT_EQ(got.x, want.x);
    EXPECT_EQ(got.y, want.y);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(evaluated, grid.nx * grid.ny);
  }
}

TEST(ScreenRect, NonFiniteScreeningValuesAreAlwaysCandidates) {
  // The true peak's screening value is NaN and another cell's bound is
  // infinite: both are evaluated, and the search still lands on the peak.
  const RectGrid grid(0.0, 1.5, 36, 6);
  const CellObjective f{grid, {{11, 3}}};
  std::vector<double> approx = f.values();
  std::vector<double> bound(approx.size(), 0.0);
  approx[3 * grid.nx + 11] = std::numeric_limits<double>::quiet_NaN();
  bound[2 * grid.nx + 5] = std::numeric_limits<double>::infinity();
  size_t evaluated = 0;
  const GridMax2D got = screenRect(f, grid, approx, bound, &evaluated);
  EXPECT_EQ(got.x, circularGridAngle(11, 36));
  EXPECT_EQ(got.y, grid.y(3));
  // The two non-finite cells plus every low cell, which tie the largest
  // finite lower end.
  EXPECT_EQ(evaluated, grid.nx * grid.ny);
}

TEST(ScreenRect, RefinedLikeMaximizeRect) {
  const double cx = 2.5, cy = 0.4;
  auto f = [&](double x, double y) {
    const double dx = geom::wrapToPi(x - cx);
    const double dy = y - cy;
    return std::exp(-(dx * dx + dy * dy) * 8.0);
  };
  const RectGrid grid(-1.0, 1.0, 180, 41);
  std::vector<double> approx(grid.nx * grid.ny);
  std::vector<double> bound(approx.size(), 1e-3);
  for (size_t j = 0; j < grid.ny; ++j) {
    for (size_t i = 0; i < grid.nx; ++i) {
      approx[j * grid.nx + i] = f(circularGridAngle(i, grid.nx), grid.y(j)) +
                                (i % 2 ? 5e-4 : -5e-4);
    }
  }
  size_t evaluated = 0;
  const GridMax2D got =
      refineRect(f, grid, screenRect(f, grid, approx, bound, &evaluated), 8);
  const GridMax2D want = maximizeRect(f, -1.0, 1.0, 180, 41, 8);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.value, want.value);
  EXPECT_LT(evaluated, 20u);
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
