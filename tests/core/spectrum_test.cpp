#include "core/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

TEST(EstimateAzimuth, FindsTruthUnderNoise) {
  SyntheticConfig sc;
  sc.readerAzimuth = 4.0;
  sc.noiseStd = 0.1;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const AzimuthEstimate est = estimateAzimuth(profile, {});
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth, 4.0)), 0.5);
  EXPECT_GT(est.value, 0.5);
}

// Coarse-to-fine matches the exhaustive search across directions.
class CoarseFineSweep : public ::testing::TestWithParam<double> {};

TEST_P(CoarseFineSweep, AgreesWithExhaustive) {
  SyntheticConfig sc;
  sc.readerAzimuth = GetParam();
  sc.noiseStd = 0.1;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const AzimuthEstimate full = estimateAzimuth(profile, {});
  const AzimuthEstimate fast = estimateAzimuthCoarseFine(profile, {});
  EXPECT_LT(geom::radToDeg(geom::circularDistance(full.azimuth,
                                                  fast.azimuth)),
            0.3);
}

INSTANTIATE_TEST_SUITE_P(Directions, CoarseFineSweep,
                         ::testing::Values(0.05, 1.0, 2.5, 3.14, 4.7, 6.2));

TEST(EstimateSpatial, RecoversPolarMagnitude) {
  for (double polarDeg : {0.0, 15.0, 30.0, 50.0, 70.0}) {
    SyntheticConfig sc;
    sc.readerAzimuth = 2.0;
    sc.readerPolar = geom::degToRad(polarDeg);
    const auto snaps = makeSnapshots(sc);
    const PowerProfile profile(snaps, defaultKinematics(), {});
    const SpatialEstimate est = estimateSpatial(profile, {});
    EXPECT_NEAR(geom::radToDeg(est.polar), polarDeg, 3.0)
        << "polar " << polarDeg;
    EXPECT_GE(est.polar, 0.0);  // reported as magnitude
  }
}

TEST(EstimateSpatial, NegativePolarGivesSameMagnitude) {
  // The source below the plane produces the same |gamma| (mirror symmetry).
  SyntheticConfig sc;
  sc.readerAzimuth = 2.0;
  sc.readerPolar = geom::degToRad(-40.0);
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const SpatialEstimate est = estimateSpatial(profile, {});
  EXPECT_NEAR(geom::radToDeg(est.polar), 40.0, 3.0);
}

// ---------------------------------------------------------------------------
// Adversarial profiles: multipath-like snapshot mixtures give the angle
// spectrum several lobes, and noise-dominated captures flatten it almost
// completely.  The coarse-to-fine search skips most of the grid, so these
// are exactly the shapes where it could diverge from the exhaustive
// traversal; assert it stays equivalent within the search grid resolution.

std::vector<Snapshot> makeMultiLobeSnapshots(double mainAzimuth,
                                             double ghostAzimuth,
                                             double ghostFraction) {
  SyntheticConfig main;
  main.readerAzimuth = mainAzimuth;
  main.noiseStd = 0.05;
  std::vector<Snapshot> snaps = makeSnapshots(main);
  SyntheticConfig ghost = main;
  ghost.readerAzimuth = ghostAzimuth;
  ghost.count = static_cast<size_t>(static_cast<double>(main.count) *
                                    ghostFraction);
  ghost.seed = 11;
  const std::vector<Snapshot> ghostSnaps = makeSnapshots(ghost);
  snaps.insert(snaps.end(), ghostSnaps.begin(), ghostSnaps.end());
  return snaps;
}

class MultiLobeSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(MultiLobeSweep, CoarseFineLocksOntoDominantLobe) {
  const auto [mainAz, ghostAz] = GetParam();
  const auto snaps = makeMultiLobeSnapshots(mainAz, ghostAz, 0.5);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const AzimuthEstimate full = estimateAzimuth(profile, {});
  const AzimuthEstimate fast = estimateAzimuthCoarseFine(profile, {});
  // Grid resolution of the exhaustive search: 360/720 = 0.5 degrees.
  EXPECT_LT(geom::radToDeg(geom::circularDistance(full.azimuth, fast.azimuth)),
            0.5)
      << "main " << mainAz << " ghost " << ghostAz;
  // Both searches must sit on the dominant (2x power) lobe, not the ghost.
  EXPECT_LT(geom::radToDeg(geom::circularDistance(full.azimuth, mainAz)), 2.0);
  EXPECT_GE(fast.value, full.value * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    LobeGeometries, MultiLobeSweep,
    ::testing::Values(std::pair{1.0, 3.5}, std::pair{2.0, 4.5},
                      std::pair{0.3, 2.2}, std::pair{5.8, 2.9}));

TEST(EstimateAzimuthAdversarial, NearFlatProfileStillEquivalent) {
  // Phase noise of ~pi makes the profile almost flat: every grid cell holds
  // a local maximum of about the same height.  The coarse-to-fine result
  // must still be a peak as good as the exhaustive one (the argmax itself
  // is not identifiable on a flat profile, so compare attained values).
  SyntheticConfig sc;
  sc.readerAzimuth = 2.0;
  sc.noiseStd = 3.0;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const AzimuthEstimate full = estimateAzimuth(profile, {});
  const AzimuthEstimate fast = estimateAzimuthCoarseFine(profile, {});
  ASSERT_GT(full.value, 0.0);
  EXPECT_GE(fast.value, full.value * 0.95);
  EXPECT_GE(fast.azimuth, 0.0);
  EXPECT_LT(fast.azimuth, 2.0 * geom::kPi);
}

TEST(EstimateSpatialAdversarial, MultiLobeMatchesDenseExhaustiveWithinGrid) {
  // Two elevated sources at different azimuths; compare estimateSpatial
  // (decimated grid + refinement) against a much denser exhaustive
  // traversal of the same spectrum.
  SyntheticConfig main;
  main.readerAzimuth = 2.0;
  main.readerPolar = geom::degToRad(30.0);
  main.noiseStd = 0.05;
  std::vector<Snapshot> snaps = makeSnapshots(main);
  SyntheticConfig ghost = main;
  ghost.readerAzimuth = 4.5;
  ghost.readerPolar = geom::degToRad(10.0);
  ghost.count = main.count * 2 / 5;
  ghost.seed = 13;
  const auto ghostSnaps = makeSnapshots(ghost);
  snaps.insert(snaps.end(), ghostSnaps.begin(), ghostSnaps.end());
  const PowerProfile profile(snaps, defaultKinematics(), {});

  const SearchConfig search;
  const SpatialEstimate est = estimateSpatial(profile, search);
  const auto dense = dsp::maximizeRect(
      [&](double phi, double gamma) { return profile.evaluate(phi, gamma); },
      0.0, spatialSearchGrid(search).ymax, 1440, 181, 8);

  // estimateSpatial's raw grid: 1 degree in azimuth, ~3 degrees in polar.
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth, dense.x)), 1.0);
  EXPECT_LT(std::abs(geom::radToDeg(est.polar) -
                     std::abs(geom::radToDeg(dense.y))),
            3.0);
  EXPECT_GE(est.value, dense.value * 0.99);
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth, 2.0)), 3.0);
}

TEST(EstimateSpatial, SearchConfigGridsRespected) {
  SyntheticConfig sc;
  sc.readerPolar = geom::degToRad(20.0);
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  SearchConfig coarse;
  coarse.azimuthGridPoints = 180;
  coarse.polarGridPoints = 31;
  const SpatialEstimate est = estimateSpatial(profile, coarse);
  EXPECT_NEAR(geom::radToDeg(est.polar), 20.0, 4.0);
}

}  // namespace
}  // namespace tagspin::core
