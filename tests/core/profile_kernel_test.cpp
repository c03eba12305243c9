// Differential tests of the batched spectrum kernel
// (PowerProfile::evaluateGrid) against the scalar reference implementation
// it replaced (reference_profile.hpp), over seeded random snapshot sets,
// and of every kernel level (KernelIsa) against the baseline level, bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/power_profile.hpp"
#include "core/spectrum.hpp"
#include "dsp/grid.hpp"
#include "dsp/peaks.hpp"
#include "geom/angles.hpp"
#include "kernel_cases.hpp"
#include "kernel_levels.hpp"
#include "reference_profile.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::KernelCase;
using testing::kernelCases;
using testing::randomSnapshots;
using testing::ReferenceProfile;

constexpr size_t kGridPoints = 720;
constexpr double kRelativeBound = 1e-12;
// The enhanced profile centres each group's residuals on their circular
// mean before weighting, so one ulp of a group's centre moves a weight by
// 2|c|/(2 sigma^2) ulps -- ~10^4 at phaseNoiseStd = 1e-3.  The kernel's
// polynomial sin/cos differ from libm's by one ulp in ~3% of cases, which
// can move a centre by an ulp, and geom::wrapToPi rounds a negative
// residual to a multiple of 2^-50 -- so the oracle's own value is no more
// exact than that.  Where the value's centre sensitivity times a shift of
// four 2^-50 steps exceeds 1e-12, that product is the bound; with the
// default phaseNoiseStd (0.1) the sensitivity is below 40, and the bound
// stays 1e-12.
constexpr double kCentreShift = 0x1p-48;

double relativeError(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

TEST(ProfileKernel, MatchesScalarReferenceOnGrid) {
  const std::vector<double> grid = dsp::circularGrid(kGridPoints);
  double worst = 0.0;
  double worstIll = 0.0;
  size_t zeros = 0;
  size_t illConditioned = 0;
  size_t beyond = 0;
  size_t values = 0;
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const ReferenceProfile oracle(snaps, c.kinematics(), c.profileConfig());
    std::vector<double> got(kGridPoints);
    profile.evaluateGrid(grid, std::cos(c.gamma), got);
    std::vector<double> want(kGridPoints);
    for (size_t i = 0; i < kGridPoints; ++i) {
      want[i] = oracle.evaluate(grid[i], c.gamma);
      ++values;
      if (want[i] == 0.0) {
        ++zeros;
        ASSERT_EQ(got[i], 0.0) << c.describe() << " point " << i;
        continue;
      }
      const double err = relativeError(got[i], want[i]);
      const double centreBound =
          oracle.centreSensitivity(grid[i], c.gamma) * kCentreShift;
      if (centreBound > kRelativeBound) {
        ++illConditioned;
        if (err > kRelativeBound) ++beyond;
        worstIll = std::max(worstIll, err);
      } else {
        worst = std::max(worst, err);
      }
      ASSERT_LE(err, std::max(kRelativeBound, centreBound))
          << c.describe() << " point " << i << " got " << got[i]
          << " want " << want[i];
    }
    EXPECT_EQ(dsp::argmax(got), dsp::argmax(want)) << c.describe();
  }
  // The underflow path must actually be exercised.
  EXPECT_GT(zeros, 0u);
  std::printf(
      "[ kernel ] %zu values: %zu exact zeros; worst relative error %.3g; "
      "%zu ill-conditioned, %zu of them beyond 1e-12 (worst %.3g)\n",
      values, zeros, worst, illConditioned, beyond, worstIll);
}

TEST(ProfileKernel, GhostScoreMatchesScalarReference) {
  for (const KernelCase& c : kernelCases()) {
    if (c.count > 400) continue;
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const ReferenceProfile oracle(snaps, c.kinematics(), c.profileConfig());
    for (double phi : {0.0, 1.1, 2.9, 5.5}) {
      const auto got = profile.weightStats(phi, c.gamma);
      const auto [mean, fraction] = oracle.weightStats(phi, c.gamma);
      EXPECT_NEAR(1.0 - got.effectiveFraction, 1.0 - fraction, 1e-12)
          << c.describe() << " phi " << phi;
      if (mean == 0.0) {
        EXPECT_EQ(got.meanWeight, 0.0) << c.describe();
      } else {
        EXPECT_LE(relativeError(got.meanWeight, mean), kRelativeBound)
            << c.describe() << " phi " << phi;
      }
    }
  }
}

TEST(ProfileKernel, SearchesPickTheOracleGridCell) {
  const SearchConfig search;
  const double polarMax = spatialSearchGrid(search).ymax;
  const double step = geom::kTwoPi / static_cast<double>(kGridPoints);
  size_t identical = 0;
  size_t searches = 0;
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const ReferenceProfile oracle(snaps, c.kinematics(), c.profileConfig());
    const AzimuthEstimate got = estimateAzimuth(profile, search);
    const dsp::GridMax1D want =
        dsp::maximizeCircular(
            [&](double phi) { return oracle.evaluate(phi); },
            search.azimuthGridPoints, search.refineRounds)
            .best;
    ++searches;
    identical += got.azimuth == want.x ? 1 : 0;
    EXPECT_LT(geom::circularDistance(got.azimuth, want.x), 0.5 * step)
        << c.describe();

    // The 3D search costs 10^4 evaluations per oracle run; keep it to the
    // small sets plus the enhanced profile at n = 400.
    const bool spatial =
        c.count <= 9 || (c.count == 400 &&
                         c.formula == ProfileFormula::kEnhancedR &&
                         c.channelCoherent);
    if (!spatial) continue;
    const SpatialEstimate got3 = estimateSpatial(profile, search);
    const dsp::GridMax2D want3 = dsp::maximizeRect(
        [&](double phi, double gamma) { return oracle.evaluate(phi, gamma); },
        0.0, polarMax, search.azimuthGridPoints / 2,
        search.polarGridPoints / 2, search.refineRounds);
    const double polarStep =
        polarMax / static_cast<double>(search.polarGridPoints / 2 - 1);
    ++searches;
    identical += got3.azimuth == want3.x && got3.polar == want3.y ? 1 : 0;
    EXPECT_LT(geom::circularDistance(got3.azimuth, want3.x), step)
        << c.describe();
    EXPECT_LT(std::abs(got3.polar - want3.y), 0.5 * polarStep)
        << c.describe();
  }
  std::printf("[ kernel ] %zu of %zu searches bit-identical to the oracle's\n",
              identical, searches);
}

TEST(ProfileKernel, DirectionValueIndependentOfBatch) {
  testing::SyntheticConfig sc;
  sc.noiseStd = 0.05;
  const auto snaps = testing::makeSnapshots(sc);
  for (const auto formula : {ProfileFormula::kRelativeQ,
                             ProfileFormula::kEnhancedR}) {
    ProfileConfig pc;
    pc.formula = formula;
    const PowerProfile profile(snaps, testing::defaultKinematics(), pc);
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> angle(-10.0, 10.0);
    for (size_t size = 1; size <= 17; ++size) {
      std::vector<double> angles(size);
      for (double& a : angles) a = angle(rng);
      std::vector<double> out(size);
      profile.evaluateGrid(angles, std::cos(0.4), out);
      for (size_t i = 0; i < size; ++i) {
        EXPECT_EQ(out[i], profile.evaluate(angles[i], 0.4))
            << "size " << size << " index " << i;
      }
    }
  }
}

TEST(ProfileKernel, AzimuthSearchGridIsSampleAzimuthGrid) {
  testing::SyntheticConfig sc;
  sc.noiseStd = 0.1;
  const auto snaps = testing::makeSnapshots(sc);
  const PowerProfile profile(snaps, testing::defaultKinematics(), {});
  std::vector<double> seenAngles;
  std::vector<double> seenValues;
  const auto recording = [&](std::span<const double> phis,
                             std::span<double> out) {
    profile.evaluateGrid(phis, 1.0, out);
    seenAngles.insert(seenAngles.end(), phis.begin(), phis.end());
    seenValues.insert(seenValues.end(), out.begin(), out.end());
  };
  const dsp::GridMax1D best =
      dsp::maximizeCircular(recording, kGridPoints, 6).best;
  EXPECT_EQ(best.x, estimateAzimuth(profile, {}).azimuth);
  const std::vector<double> samples = profile.sampleAzimuth(kGridPoints);
  ASSERT_GE(seenValues.size(), kGridPoints);
  for (size_t i = 0; i < kGridPoints; ++i) {
    EXPECT_EQ(seenAngles[i], dsp::circularGridAngle(i, kGridPoints)) << i;
    EXPECT_EQ(seenValues[i], samples[i]) << i;
  }
}

TEST(ProfileKernel, EvaluateGridRejectsSizeMismatch) {
  testing::SyntheticConfig sc;
  sc.count = 16;
  const auto snaps = testing::makeSnapshots(sc);
  const PowerProfile profile(snaps, testing::defaultKinematics(), {});
  std::vector<double> angles(5, 0.5);
  std::vector<double> out(4);
  EXPECT_THROW(profile.evaluateGrid(angles, 1.0, out), std::invalid_argument);
}

// ---- Kernel levels.  Each level the host supports must reproduce the
// baseline level's bits (memcmp, not a tolerance) over every seeded case:
// the levels differ only in vector width, so any difference is a
// contracted multiply-add or a reordered operation.

bool sameBits(const void* a, const void* b, size_t bytes) {
  return std::memcmp(a, b, bytes) == 0;
}

bool sameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         sameBits(a.data(), b.data(), a.size() * sizeof(double));
}

bool sameBits(double a, double b) { return sameBits(&a, &b, sizeof a); }

bool sameBits(const PowerProfile::WeightStats& a,
              const PowerProfile::WeightStats& b) {
  return sameBits(a.meanWeight, b.meanWeight) &&
         sameBits(a.effectiveFraction, b.effectiveFraction);
}

/// The azimuth and 3D searches of estimateAzimuth/estimateSpatial, with
/// every evaluation on one explicit level.
struct LevelSearch {
  const PowerProfile& profile;
  KernelIsa isa;
  SearchConfig search;

  dsp::GridMax1D azimuth() const {
    return dsp::maximizeCircular(
               [&](std::span<const double> phis, std::span<double> out) {
                 profile.evaluateGridOn(isa, phis, 1.0, out);
               },
               search.azimuthGridPoints, search.refineRounds)
        .best;
  }

  dsp::GridMax2D spatial() const {
    const dsp::RectGrid grid = spatialSearchGrid(search);
    return dsp::maximizeRect(
        [&](std::span<const double> phis, double gamma,
            std::span<double> out) {
          profile.evaluateGridOn(isa, phis, std::cos(gamma), out);
        },
        grid.ymin, grid.ymax, search.azimuthGridPoints / 2,
        std::max<size_t>(search.polarGridPoints / 2, 2), search.refineRounds);
  }
};

TEST(KernelIsa, ActiveLevelIsTheWidestSupported) {
  const KernelIsa active = activeKernelIsa();
  EXPECT_TRUE(kernelIsaSupported(KernelIsa::kBaseline));
  EXPECT_TRUE(kernelIsaSupported(active));
  std::string supported;
  for (const KernelIsa isa : {KernelIsa::kBaseline, KernelIsa::kX86_64_V3,
                              KernelIsa::kX86_64_V4}) {
    EXPECT_EQ(kernelIsaSupported(isa), isa <= active) << kernelIsaName(isa);
    if (kernelIsaSupported(isa)) {
      supported += std::string(" ") + kernelIsaName(isa);
    }
  }
  EXPECT_STREQ(kernelIsaName(KernelIsa::kBaseline), "baseline");
  EXPECT_STREQ(kernelIsaName(KernelIsa::kX86_64_V3), "x86-64-v3");
  EXPECT_STREQ(kernelIsaName(KernelIsa::kX86_64_V4), "x86-64-v4");
  std::printf("[ kernel ] active level %s; supported:%s\n",
              kernelIsaName(active), supported.c_str());
}

TEST(KernelIsa, PublicEntryPointsMatchTheBaselineLevel) {
  // Whichever level this host runs, every public entry point gives the
  // baseline level's bits.
  const SearchConfig search;
  const std::vector<double> grid = dsp::circularGrid(kGridPoints);
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const double scale = std::cos(c.gamma);
    std::vector<double> want(kGridPoints);
    std::vector<double> got(kGridPoints);
    profile.evaluateGridOn(KernelIsa::kBaseline, grid, scale, want);
    profile.evaluateGrid(grid, scale, got);
    EXPECT_TRUE(sameBits(got, want)) << c.describe();
    EXPECT_TRUE(sameBits(profile.sampleAzimuth(kGridPoints, c.gamma), want))
        << c.describe();
    for (const double phi : {0.0, 1.1, 2.9, 5.5}) {
      double one = 0.0;
      profile.evaluateGridOn(KernelIsa::kBaseline, {&phi, 1}, scale,
                             {&one, 1});
      EXPECT_TRUE(sameBits(profile.evaluate(phi, c.gamma), one))
          << c.describe() << " phi " << phi;
      EXPECT_TRUE(sameBits(profile.evaluateDirection(phi, scale), one))
          << c.describe() << " phi " << phi;
      EXPECT_TRUE(sameBits(
          profile.weightStats(phi, c.gamma),
          profile.weightStatsOn(KernelIsa::kBaseline, phi, c.gamma)))
          << c.describe() << " phi " << phi;
    }
    const LevelSearch base{profile, KernelIsa::kBaseline, search};
    const dsp::GridMax1D az = base.azimuth();
    const AzimuthEstimate gotAz = estimateAzimuth(profile, search);
    EXPECT_TRUE(sameBits(gotAz.azimuth, az.x) &&
                sameBits(gotAz.value, az.value))
        << c.describe();
    const dsp::GridMax2D sp = base.spatial();
    const SpatialEstimate gotSp = estimateSpatial(profile, search);
    EXPECT_TRUE(sameBits(gotSp.azimuth, sp.x) &&
                sameBits(gotSp.polar, std::abs(sp.y)) &&
                sameBits(gotSp.value, sp.value))
        << c.describe();
  }
}

using KernelIsaParity = testing::PerKernelLevel;

TEST_P(KernelIsaParity, GridSweepsMatchBaseline) {
  const std::vector<double> grid = dsp::circularGrid(kGridPoints);
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    for (const double scale : {std::cos(c.gamma), 1.0}) {
      std::vector<double> want(kGridPoints);
      std::vector<double> got(kGridPoints);
      profile.evaluateGridOn(KernelIsa::kBaseline, grid, scale, want);
      profile.evaluateGridOn(GetParam(), grid, scale, got);
      ASSERT_TRUE(sameBits(got, want)) << c.describe() << " scale " << scale;
    }
  }
}

TEST_P(KernelIsaParity, BatchesOf1To17MatchBaseline) {
  // Sizes 1..17 cover the one-lane call, partial and full 8-lane blocks
  // and the padded tail.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> angle(-10.0, 10.0);
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    for (size_t size = 1; size <= 17; ++size) {
      std::vector<double> angles(size);
      for (double& a : angles) a = angle(rng);
      std::vector<double> want(size);
      std::vector<double> got(size);
      profile.evaluateGridOn(KernelIsa::kBaseline, angles, std::cos(c.gamma),
                             want);
      profile.evaluateGridOn(GetParam(), angles, std::cos(c.gamma), got);
      ASSERT_TRUE(sameBits(got, want)) << c.describe() << " size " << size;
    }
  }
}

TEST_P(KernelIsaParity, OneDirectionCallsMatchBaseline) {
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    for (const double phi : {0.0, 1.1, 2.9, 5.5}) {
      for (const double gamma : {c.gamma, 0.0}) {
        const double scale = std::cos(gamma);
        double want = 0.0;
        double got = 0.0;
        profile.evaluateGridOn(KernelIsa::kBaseline, {&phi, 1}, scale,
                               {&want, 1});
        profile.evaluateGridOn(GetParam(), {&phi, 1}, scale, {&got, 1});
        EXPECT_TRUE(sameBits(got, want))
            << c.describe() << " phi " << phi << " gamma " << gamma;
        EXPECT_TRUE(
            sameBits(profile.weightStatsOn(GetParam(), phi, gamma),
                     profile.weightStatsOn(KernelIsa::kBaseline, phi, gamma)))
            << c.describe() << " phi " << phi << " gamma " << gamma;
      }
    }
  }
}

TEST_P(KernelIsaParity, SearchesMatchBaseline) {
  const SearchConfig search;
  for (const KernelCase& c : kernelCases()) {
    const auto snaps = randomSnapshots(c);
    const PowerProfile profile(snaps, c.kinematics(), c.profileConfig());
    const LevelSearch base{profile, KernelIsa::kBaseline, search};
    const LevelSearch level{profile, GetParam(), search};
    const dsp::GridMax1D want = base.azimuth();
    const dsp::GridMax1D got = level.azimuth();
    EXPECT_TRUE(sameBits(got.x, want.x) && sameBits(got.value, want.value))
        << c.describe();
    const dsp::GridMax2D want3 = base.spatial();
    const dsp::GridMax2D got3 = level.spatial();
    EXPECT_TRUE(sameBits(got3.x, want3.x) && sameBits(got3.y, want3.y) &&
                sameBits(got3.value, want3.value))
        << c.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(KernelIsa, KernelIsaParity,
                         ::testing::Values(KernelIsa::kX86_64_V3,
                                           KernelIsa::kX86_64_V4),
                         testing::kernelLevelTestName);

}  // namespace
}  // namespace tagspin::core
