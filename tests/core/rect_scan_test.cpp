// The float32 rectangle scan (PowerProfile::scanRect, DESIGN.md section 11,
// "Float scan") and the 3D search it screens.  Each constant of the scan's
// error bound is checked against libm or exact arithmetic; the bound
// itself must hold at every cell of estimateSpatial's rectangle over the
// seeded kernel cases; every kernel level must give the same float bits
// and bounds; and the number of cells the search re-checks in double is
// pinned, so a looser bound or a different float result shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "core/kernel_math.hpp"
#include "core/power_profile.hpp"
#include "core/spectrum.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "kernel_cases.hpp"
#include "kernel_levels.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using kernel::FloatScanError;
using testing::KernelCase;
using testing::kernelCases;
using testing::randomSnapshots;

constexpr double kU = FloatScanError::kUnit;

/// The scan of estimateSpatial's rectangle at one kernel level.
struct RectScan {
  dsp::RectGrid grid;
  std::vector<double> angles;
  std::vector<double> scales;
  std::vector<double> values;
  std::vector<double> bounds;

  RectScan(const PowerProfile& profile, KernelIsa isa,
           const SearchConfig& search = {})
      : grid(spatialSearchGrid(search)),
        angles(dsp::circularGrid(grid.nx)),
        scales(grid.ny),
        values(grid.nx * grid.ny),
        bounds(values.size()) {
    for (size_t j = 0; j < grid.ny; ++j) scales[j] = std::cos(grid.y(j));
    profile.scanRectOn(isa, angles, scales, values, bounds);
  }
};

/// x - y reduced to [-pi, pi]: the distance of two phases on the circle.
long double circularDiff(long double x, long double y) {
  const long double twoPi = 2.0L * std::numbers::pi_v<long double>;
  long double d = std::fmod(x - y, twoPi);
  if (d > twoPi / 2) d -= twoPi;
  if (d < -twoPi / 2) d += twoPi;
  return d;
}

TEST(RectScan, FloatSinCosWithinItsConstant) {
  // Evenly spaced over the whole range the scan admits (a little beyond
  // it, for the rounding of a phase at the limit), evenly over R's
  // residual range [-pi, pi], and random.
  double worst = 0.0;
  float worstAt = 0.0f;
  const auto check = [&](float x) {
    float s;
    float c;
    kernel::sinCos(x, s, c);
    const double err = std::max(std::abs(s - std::sin(double{x})),
                                std::abs(c - std::cos(double{x})));
    if (!(err <= worst)) {
      worst = err;
      worstAt = x;
    }
  };
  const double limit = FloatScanError::kMaxPhase * (1.0 + 0x1p-10);
  constexpr int kEven = 1 << 21;
  for (int k = -kEven; k <= kEven; ++k) {
    check(static_cast<float>(limit * k / kEven));
    check(static_cast<float>(std::numbers::pi * k / kEven));
  }
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> any(-limit, limit);
  for (int k = 0; k < (1 << 21); ++k) check(static_cast<float>(any(rng)));
  std::printf("[ scan   ] float sin/cos: worst error %.3g at %.9g (%.2f of "
              "its constant %.3g)\n",
              worst, double{worstAt}, worst / FloatScanError::kSinCos,
              FloatScanError::kSinCos);
  EXPECT_LE(worst, FloatScanError::kSinCos);
}

TEST(RectScan, FloatExpWithinItsConstant) {
  double worst = 0.0;
  float worstAt = 0.0f;
  const auto check = [&](float x) {
    const double err = std::abs(kernel::expKernel(x) - std::exp(double{x}));
    if (!(err <= worst)) {
      worst = err;
      worstAt = x;
    }
  };
  constexpr int kEven = 1 << 22;
  for (int k = 0; k <= kEven; ++k) {
    check(static_cast<float>(-120.0 * k / kEven));
    check(static_cast<float>(-1.0 * k / kEven));
  }
  check(-0.0f);
  check(-1e30f);
  check(-std::numeric_limits<float>::infinity());
  std::printf("[ scan   ] float exp: worst error %.3g at %.9g (%.2f of its "
              "constant %.3g)\n",
              worst, double{worstAt}, worst / FloatScanError::kExp,
              FloatScanError::kExp);
  EXPECT_LE(worst, FloatScanError::kExp);
  EXPECT_TRUE(std::isnan(
      kernel::expKernel(std::numeric_limits<float>::quiet_NaN())));
}

TEST(RectScan, PhaseTermsWithinTheirConstants) {
  // Q's steered phase and R's wrapped residual in float, from double
  // inputs rounded to float as the scan rounds them, against exact
  // arithmetic on the double inputs: within (kPhaseUlps M +
  // kPhaseFloorUlps) u, M = |rel| + 2 k r |scale|.  Then R's centring and
  // weight roundings.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double worstPhase = 0.0;
  double worstCentred = 0.0;
  double worstWeight = 0.0;
  for (int k = 0; k < 400000; ++k) {
    const double rel = geom::kPi * (2.0 * unit(rng) - 1.0) *
                       (k % 4 == 0 ? 2.0 : 1.0);  // P's raw phases too
    const double scale = 2.0 * unit(rng) - 1.0;
    const double krMax = FloatScanError::kMaxPhase / 2.0;
    const double kr = std::pow(krMax, unit(rng)) * (k % 2 ? 1.0 : 0.01);
    const double a = geom::kTwoPi * unit(rng);
    const double phi = geom::kTwoPi * unit(rng);
    const double a0 = geom::kTwoPi * unit(rng);
    const double ca = std::cos(a);
    const double sa = std::sin(a);
    const double cp = std::cos(phi);
    const double sp = std::sin(phi);
    const double cosRef = std::cos(a0) * cp + std::sin(a0) * sp;
    const double m = std::abs(rel) + 2.0 * kr * std::abs(scale);
    if (m > FloatScanError::kMaxPhase) continue;
    const double allowed =
        (FloatScanError::kPhaseUlps * m + FloatScanError::kPhaseFloorUlps) *
        kU;
    const long double cosAmP =
        static_cast<long double>(ca) * cp + static_cast<long double>(sa) * sp;
    const auto f = [](double v) { return static_cast<float>(v); };

    const float steered = kernel::steeredPhase(
        f(rel), f(kr), f(ca), f(sa), f(cp), f(sp), f(scale));
    const long double steeredExact =
        rel + static_cast<long double>(kr) * cosAmP * scale;
    worstPhase = std::max(
        worstPhase,
        static_cast<double>(std::abs(steered - steeredExact)) / allowed);

    const float residual = kernel::wrapPhase(kernel::residualPhase(
        f(rel), f(kr) * f(scale), f(ca), f(sa), f(cp), f(sp), f(cosRef)));
    const long double residualExact =
        rel - static_cast<long double>(kr) * scale * (cosRef - cosAmP);
    worstPhase = std::max(
        worstPhase,
        static_cast<double>(std::abs(circularDiff(residual, residualExact))) /
            allowed);

    const double centre = geom::kPi * (2.0 * unit(rng) - 1.0);
    const float centred = kernel::wrapPhase(residual - f(centre));
    worstCentred = std::max(
        worstCentred,
        static_cast<double>(std::abs(
            circularDiff(centred, static_cast<long double>(residual) -
                                      centre))) /
            (FloatScanError::kCentredUlps * kU));

    const double inv2Sigma2 = std::pow(10.0, 6.0 * unit(rng) - 1.0);
    const float w = kernel::expKernel(-centred * centred * f(inv2Sigma2));
    const long double wExact = std::exp(-static_cast<long double>(centred) *
                                        centred * inv2Sigma2);
    worstWeight = std::max(
        worstWeight,
        static_cast<double>(std::abs(w - wExact)) /
            (FloatScanError::kExp + FloatScanError::kWeightArgUlps * kU));
  }
  std::printf("[ scan   ] worst share of its constant: phase %.2f, centred "
              "%.2f, weight %.2f\n",
              worstPhase, worstCentred, worstWeight);
  EXPECT_LE(worstPhase, 1.0);
  EXPECT_LE(worstCentred, 1.0);
  EXPECT_LE(worstWeight, 1.0);
}

TEST(RectScan, BoundHoldsAtEveryCellOfEveryKernelCase) {
  // The whole of estimateSpatial's rectangle, every row, every case:
  // |float - double| <= bound, cell by cell, against evaluateGrid.
  size_t cells = 0;
  size_t unscanned = 0;
  double worstRatio = 0.0;
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const RectScan scan(profile, activeKernelIsa());
    std::vector<double> row(scan.grid.nx);
    for (size_t j = 0; j < scan.grid.ny; ++j) {
      profile.evaluateGrid(scan.angles, scan.scales[j], row);
      for (size_t i = 0; i < scan.grid.nx; ++i) {
        const size_t k = j * scan.grid.nx + i;
        ++cells;
        ASSERT_GE(scan.bounds[k], 0.0) << c.describe();
        if (std::isinf(scan.bounds[k])) {
          ++unscanned;
          continue;
        }
        const double err = std::abs(scan.values[k] - row[i]);
        ASSERT_LE(err, scan.bounds[k])
            << c.describe() << " row " << j << " column " << i << " float "
            << scan.values[k] << " double " << row[i];
        worstRatio = std::max(worstRatio, err / scan.bounds[k]);
      }
    }
  }
  std::printf("[ scan   ] %zu cells, %zu in unscanned rows; worst |float - "
              "double| / bound %.3g\n",
              cells, unscanned, worstRatio);
  // The unscanned rows are the large-k r cases' (phases beyond the float
  // reductions' range); most of the grid must be scanned.
  EXPECT_LT(unscanned, cells / 10);
}

TEST(RectScan, RowsBeyondTheFloatRangeAreNotScanned) {
  testing::SyntheticConfig sc;
  sc.lambdaM = 1e-4;  // k r = 2 pi 10^3 at r = 0.1: 2 k r > kMaxPhase
  sc.count = 50;
  const auto snaps = testing::makeSnapshots(sc);
  const PowerProfile profile(snaps, testing::defaultKinematics(), {});
  const std::vector<double> angles = dsp::circularGrid(8);
  const std::vector<double> scales = {1.0, 0.5, 1e-3};
  std::vector<double> values(angles.size() * scales.size());
  std::vector<double> bounds(values.size());
  profile.scanRect(angles, scales, values, bounds);
  for (size_t i = 0; i < angles.size(); ++i) {
    EXPECT_TRUE(std::isinf(bounds[i])) << i;
    EXPECT_TRUE(std::isinf(bounds[angles.size() + i])) << i;
    EXPECT_TRUE(std::isfinite(bounds[2 * angles.size() + i])) << i;
  }
  EXPECT_THROW(profile.scanRect(angles, scales, std::span(values).first(3),
                                bounds),
               std::invalid_argument);
}

TEST(RectScan, RecheckTotalOverTheKernelCasesIsPinned) {
  // The float bits and bounds are the same at every level, so the cells
  // estimateSpatial re-checks in double are too.  A different total means
  // the float arithmetic or the bound changed.  Most of it comes from
  // spectra flat to within the bound (lambda = 1 km or a tiny r / lambda,
  // where the aperture term vanishes, and sets of 2 or 3 reads), where
  // every cell is a candidate, and from the rows too large-k r to scan.
  // The direction's cos/sin and R's hypot/atan2 are libm calls, so another
  // libm can move the total; it was pinned with glibc 2.36.
  size_t total = 0;
  size_t worst = 0;
  const SearchConfig search;
  const dsp::RectGrid grid = spatialSearchGrid(search);
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const SpatialEstimate est = estimateSpatial(profile, search);
    EXPECT_GE(est.recheckedCells, 1u) << c.describe();
    EXPECT_LE(est.recheckedCells, grid.nx * grid.ny) << c.describe();
    total += est.recheckedCells;
    worst = std::max(worst, est.recheckedCells);
  }
  std::printf("[ scan   ] 108 searches re-checked %zu cells in double "
              "(worst search %zu of %zu)\n",
              total, worst, grid.nx * grid.ny);
  EXPECT_EQ(total, 211763u);
}

TEST(RectScan, SurveyLikeSearchesRecheckFewCells) {
  // ~1257 reads of one revolution, default noise and sigma, 1 or 16
  // channels, Q (calibration pass 0) and R, the reader from level to
  // steeply elevated.
  size_t worst = 0;
  size_t searches = 0;
  for (const auto formula :
       {ProfileFormula::kRelativeQ, ProfileFormula::kEnhancedR}) {
    for (const int channels : {1, 16}) {
      for (const double polar : {0.0, 0.3, 0.6, 0.9}) {
        testing::SyntheticConfig sc;
        sc.count = 1257;
        sc.noiseStd = 0.1;
        sc.readerPolar = polar;
        sc.readerAzimuth = 0.4 + polar;
        sc.durationS = geom::kTwoPi / 0.5;
        auto snaps = testing::makeSnapshots(sc);
        for (size_t i = 0; i < snaps.size(); ++i) {
          snaps[i].channel = static_cast<int>(i * channels / snaps.size());
        }
        ProfileConfig pc;
        pc.formula = formula;
        const PowerProfile profile(snaps, testing::defaultKinematics(), pc);
        const SpatialEstimate est = estimateSpatial(profile, {});
        ++searches;
        worst = std::max(worst, est.recheckedCells);
        EXPECT_LE(est.recheckedCells, 16u)
            << "formula " << static_cast<int>(formula) << " channels "
            << channels << " polar " << polar;
      }
    }
  }
  std::printf("[ scan   ] %zu survey-like searches: at most %zu cells "
              "re-checked\n",
              searches, worst);
}

bool sameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RectScan, PublicScanMatchesTheBaselineLevel) {
  for (const KernelCase& c : kernelCases()) {
    if (c.count > 400) continue;
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const RectScan want(profile, KernelIsa::kBaseline);
    std::vector<double> values(want.values.size());
    std::vector<double> bounds(values.size());
    profile.scanRect(want.angles, want.scales, values, bounds);
    EXPECT_TRUE(sameBits(values, want.values)) << c.describe();
    EXPECT_TRUE(sameBits(bounds, want.bounds)) << c.describe();
  }
}

using RectScanParity = testing::PerKernelLevel;

TEST_P(RectScanParity, ValuesAndBoundsMatchBaseline) {
  std::printf("[ scan   ] level %s against baseline\n",
              kernelIsaName(GetParam()));
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const RectScan want(profile, KernelIsa::kBaseline);
    const RectScan got(profile, GetParam());
    ASSERT_TRUE(sameBits(got.values, want.values)) << c.describe();
    ASSERT_TRUE(sameBits(got.bounds, want.bounds)) << c.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(RectScan, RectScanParity,
                         ::testing::Values(KernelIsa::kX86_64_V3,
                                           KernelIsa::kX86_64_V4),
                         testing::kernelLevelTestName);

}  // namespace
}  // namespace tagspin::core
