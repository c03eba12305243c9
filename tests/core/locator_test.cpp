#include "core/locator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

/// Observation of a rig at `center` watching a reader at `reader`.
RigObservation makeObservation(const geom::Vec3& center,
                               const geom::Vec3& reader, uint64_t seed,
                               double noise = 0.0) {
  RigObservation obs;
  obs.rig.center = center;
  obs.rig.kinematics = defaultKinematics();
  obs.rig.kinematics.initialAngle = 0.21 * static_cast<double>(seed);
  SyntheticConfig sc;
  sc.distanceM = (reader.xy() - center.xy()).norm();
  sc.readerAzimuth = geom::azimuthOf(center, reader);
  sc.readerPolar = geom::polarOf(center, reader);
  sc.noiseStd = noise;
  sc.seed = seed;
  sc.thetaDiv = 0.4 + 0.9 * static_cast<double>(seed);  // per-tag diversity
  obs.snapshots = makeSnapshots(sc, obs.rig.kinematics);
  return obs;
}

/// The paper estimator's fix: every rig kept (kKeepEveryRig).
Fix2D paperFix2D(const Locator& locator,
                 std::span<const RigObservation> obs) {
  Result<ResilientFix2D> res = locator.tryLocate2D(obs, kKeepEveryRig);
  if (!res) {
    ADD_FAILURE() << errorCodeName(res.code()) << ": " << res.error().message;
    return {};
  }
  return std::move(res->fix);
}

Fix3D paperFix3D(const Locator& locator,
                 std::span<const RigObservation> obs) {
  Result<ResilientFix3D> res = locator.tryLocate3D(obs, kKeepEveryRig);
  if (!res) {
    ADD_FAILURE() << errorCodeName(res.code()) << ": " << res.error().message;
    return {};
  }
  return std::move(res->fix);
}

TEST(Locator, Locate2DNoiselessIsExact) {
  const geom::Vec3 reader{0.9, 2.1, 0.0};
  const std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, 0.0}, reader, 1),
      makeObservation({0.2, 0.0, 0.0}, reader, 2)};
  const Locator locator;
  const Fix2D fix = paperFix2D(locator, obs);
  EXPECT_NEAR(fix.position.x, reader.x, 0.02);
  EXPECT_NEAR(fix.position.y, reader.y, 0.03);
  ASSERT_EQ(fix.directions.size(), 2u);
  EXPECT_GT(fix.directions[0].peakValue, 0.9);
}

// Sweep reader positions across the plane.
struct XY {
  double x, y;
};
class Locate2DSweep : public ::testing::TestWithParam<XY> {};

TEST_P(Locate2DSweep, RecoversReaderUnderNoise) {
  const geom::Vec3 reader{GetParam().x, GetParam().y, 0.0};
  const std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, 0.0}, reader, 5, 0.1),
      makeObservation({0.2, 0.0, 0.0}, reader, 6, 0.1)};
  const Locator locator;
  const Fix2D fix = paperFix2D(locator, obs);
  EXPECT_LT(geom::distance(fix.position, reader.xy()), 0.12)
      << "reader at (" << reader.x << ", " << reader.y << ")";
}

INSTANTIATE_TEST_SUITE_P(ReaderPositions, Locate2DSweep,
                         ::testing::Values(XY{0.0, 1.5}, XY{1.0, 2.0},
                                           XY{-1.2, 1.1}, XY{0.5, 3.0},
                                           XY{-0.4, 2.4}, XY{1.5, 1.0}));

TEST(Locator, ThreeRigsUseLeastSquares) {
  const geom::Vec3 reader{0.4, 1.8, 0.0};
  const std::vector<RigObservation> obs{
      makeObservation({-0.4, 0.0, 0.0}, reader, 1, 0.1),
      makeObservation({0.4, 0.0, 0.0}, reader, 2, 0.1),
      makeObservation({0.0, 0.5, 0.0}, reader, 3, 0.1)};
  const Locator locator;
  const Fix2D fix = paperFix2D(locator, obs);
  EXPECT_LT(geom::distance(fix.position, reader.xy()), 0.08);
  EXPECT_GE(fix.residualM, 0.0);
}

TEST(Locator, RejectsTooFewRigs) {
  const geom::Vec3 reader{0.4, 1.8, 0.0};
  const std::vector<RigObservation> one{
      makeObservation({0.0, 0.0, 0.0}, reader, 1)};
  const Locator locator;
  EXPECT_EQ(locator.tryLocate2D(one, kKeepEveryRig).code(),
            ErrorCode::kTooFewRigs);
  EXPECT_EQ(locator.tryLocate3D(one, kKeepEveryRig).code(),
            ErrorCode::kTooFewRigs);
}

TEST(Locator, Locate3DRecoversHeight) {
  const geom::Vec3 reader{0.6, 1.9, 0.8};
  const std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, 0.0}, reader, 1),
      makeObservation({0.2, 0.0, 0.0}, reader, 2)};
  Locator locator;  // default: non-negative z
  const Fix3D fix = paperFix3D(locator, obs);
  EXPECT_NEAR(fix.position.x, reader.x, 0.04);
  EXPECT_NEAR(fix.position.y, reader.y, 0.06);
  EXPECT_NEAR(fix.position.z, reader.z, 0.08);
  EXPECT_FALSE(fix.mirrorCandidate.has_value());
}

TEST(Locator, Locate3DZResolutionModes) {
  const geom::Vec3 reader{0.6, 1.9, 0.8};
  const std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, 0.0}, reader, 1),
      makeObservation({0.2, 0.0, 0.0}, reader, 2)};

  LocatorConfig below;
  below.zResolution = ZResolution::kNonPositive;
  const Fix3D fixBelow = paperFix3D(Locator(below), obs);
  EXPECT_NEAR(fixBelow.position.z, -reader.z, 0.08);  // mirrored

  LocatorConfig both;
  both.zResolution = ZResolution::kBoth;
  const Fix3D fixBoth = paperFix3D(Locator(both), obs);
  ASSERT_TRUE(fixBoth.mirrorCandidate.has_value());
  EXPECT_NEAR(fixBoth.position.z, reader.z, 0.08);
  EXPECT_NEAR(fixBoth.mirrorCandidate->z, -reader.z, 0.08);
  EXPECT_NEAR(fixBoth.position.x, fixBoth.mirrorCandidate->x, 1e-12);
}

TEST(Locator, Locate3DZRelativeToRigPlane) {
  // Rigs on a desk at z = 0.1; reader 0.7 above the desk.
  const double plane = 0.1;
  const geom::Vec3 reader{0.5, 2.0, plane + 0.7};
  std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, plane}, reader, 1),
      makeObservation({0.2, 0.0, plane}, reader, 2)};
  const Locator locator;
  const Fix3D fix = paperFix3D(locator, obs);
  EXPECT_NEAR(fix.position.z, plane + 0.7, 0.08);
}

TEST(Locator, DisambiguateZPicksTrueCandidate) {
  // Vertical rig in the x-z plane sees different steering for +-z.
  const geom::Vec3 reader{0.5, 1.5, 0.6};
  RigObservation vertical;
  vertical.rig.center = {0.0, 0.3, 0.0};
  vertical.rig.kinematics = defaultKinematics();
  // Synthesize phases for a vertically spinning tag: position angle in the
  // x-z plane.
  {
    SyntheticConfig sc;
    std::vector<Snapshot> snaps;
    const double lambda = sc.lambdaM;
    for (int i = 0; i < 800; ++i) {
      const double t = 30.0 * i / 800.0;
      const double a = vertical.rig.kinematics.diskAngle(t);
      const geom::Vec3 tagPos =
          vertical.rig.center +
          geom::Vec3{0.10 * std::cos(a), 0.0, 0.10 * std::sin(a)};
      Snapshot s;
      s.timeS = t;
      s.phaseRad = geom::wrapTwoPi(4.0 * geom::kPi / lambda *
                                       geom::distance(tagPos, reader) +
                                   0.77);
      s.lambdaM = lambda;
      snaps.push_back(s);
    }
    vertical.snapshots = std::move(snaps);
  }
  const Locator locator;
  const geom::Vec3 mirror{reader.x, reader.y, -reader.z};
  EXPECT_EQ(locator.disambiguateZ(vertical, reader, mirror), reader);
  EXPECT_EQ(locator.disambiguateZ(vertical, mirror, reader), reader);
}

TEST(Locator, OrientationCalibrationLoopImproves) {
  // Inject an orientation effect and give the locator the exact model; the
  // calibrated fix must beat the uncalibrated one.
  const geom::Vec3 reader{0.8, 1.8, 0.0};
  auto g = [](double rho) { return 0.33 * std::cos(2.0 * rho); };

  auto makeObsWithOrientation = [&](const geom::Vec3& center, uint64_t seed) {
    RigObservation obs;
    obs.rig.center = center;
    obs.rig.kinematics = defaultKinematics();
    SyntheticConfig sc;
    sc.distanceM = (reader.xy() - center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(center, reader);
    sc.noiseStd = 0.1;
    sc.seed = seed;
    sc.orientation = g;
    obs.snapshots = makeSnapshots(sc, obs.rig.kinematics);
    return obs;
  };

  std::vector<RigObservation> obs{
      makeObsWithOrientation({-0.2, 0.0, 0.0}, 1),
      makeObsWithOrientation({0.2, 0.0, 0.0}, 2)};

  // Fit a model from a center-spin of the same response.
  RigKinematics center{0.0, 0.5, 0.0, geom::kPi / 2.0};
  SyntheticConfig fitCfg;
  fitCfg.count = 1200;
  fitCfg.orientation = g;
  fitCfg.noiseStd = 0.05;
  const OrientationModel model = OrientationModel::fit(
      makeSnapshots(fitCfg, center), center, fitCfg.readerAzimuth);

  const Locator locator;
  const Fix2D uncal = paperFix2D(locator, obs);
  for (RigObservation& o : obs) o.orientation = model;
  const Fix2D cal = paperFix2D(locator, obs);
  EXPECT_LT(geom::distance(cal.position, reader.xy()),
            geom::distance(uncal.position, reader.xy()));
  EXPECT_LT(geom::distance(cal.position, reader.xy()), 0.06);
}

}  // namespace
}  // namespace tagspin::core
