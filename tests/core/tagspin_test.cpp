#include "core/tagspin.hpp"

#include <gtest/gtest.h>

#include "geom/angles.hpp"
#include "rf/constants.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

/// Wrap synthetic snapshots of one rig into TagReports for `epc`.
rfid::ReportStream toReports(const std::vector<Snapshot>& snaps,
                             const rfid::Epc& epc) {
  rfid::ReportStream out;
  for (const Snapshot& s : snaps) {
    rfid::TagReport r;
    r.epc = epc;
    r.timestampS = s.timeS;
    r.phaseRad = s.phaseRad;
    r.rssiDbm = -50.0;
    r.channelIndex = s.channel;
    r.frequencyHz = rf::kSpeedOfLight / s.lambdaM;
    out.push_back(r);
  }
  return out;
}

struct Deployment {
  TagspinSystem server;
  rfid::ReportStream reports;
  geom::Vec3 reader;
};

Deployment makeDeployment(const geom::Vec3& reader,
                          const LocatorConfig& config = {}) {
  Deployment dep{TagspinSystem(config), {}, reader};
  const geom::Vec3 centers[2] = {{-0.2, 0.0, 0.0}, {0.2, 0.0, 0.0}};
  for (int i = 0; i < 2; ++i) {
    const rfid::Epc epc = rfid::Epc::forSimulatedTag(static_cast<uint32_t>(i));
    RigSpec spec;
    spec.center = centers[i];
    spec.kinematics = defaultKinematics();
    spec.kinematics.initialAngle = 0.4 * i;
    dep.server.registerRig(epc, spec);

    SyntheticConfig sc;
    sc.distanceM = (reader.xy() - centers[i].xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(centers[i], reader);
    sc.readerPolar = geom::polarOf(centers[i], reader);
    sc.noiseStd = 0.05;
    sc.seed = static_cast<uint64_t>(i) + 1;
    const auto snaps = makeSnapshots(sc, spec.kinematics);
    const auto reports = toReports(snaps, epc);
    dep.reports.insert(dep.reports.end(), reports.begin(), reports.end());
  }
  return dep;
}

TEST(TagspinSystem, Locate2DFromReportStream) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  EXPECT_EQ(dep.server.rigCount(), 2u);
  const auto fix = dep.server.tryLocate2D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_LT(geom::distance(fix->fix.position, dep.reader.xy()), 0.06);
}

TEST(TagspinSystem, Locate3DFromReportStream) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.9});
  const auto fix = dep.server.tryLocate3D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_LT(geom::distance(fix->fix.position, dep.reader), 0.12);
}

TEST(TagspinSystem, UnbuildableVerticalRigLeavesBothZCandidates) {
  // The vertical rig is heard, but its profile cannot be built (zero
  // radius): tryLocate3D still answers, with the mirror candidate kept.
  LocatorConfig lc;
  lc.zResolution = ZResolution::kBoth;
  Deployment dep = makeDeployment({0.7, 2.2, 0.9}, lc);
  RigSpec broken;
  broken.kinematics = defaultKinematics();
  broken.kinematics.radiusM = 0.0;
  dep.server.registerVerticalRig(rfid::Epc::forSimulatedTag(0), broken);
  const auto fix = dep.server.tryLocate3D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_TRUE(fix->fix.mirrorCandidate.has_value());
}

TEST(TagspinSystem, IgnoresUnknownTags) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  // Stray reports from an unregistered tag must not disturb the fix.
  rfid::TagReport stray;
  stray.epc = rfid::Epc::forSimulatedTag(999);
  stray.timestampS = 1.0;
  stray.phaseRad = 0.5;
  stray.rssiDbm = -40.0;
  stray.frequencyHz = rf::mhz(922.0);
  for (int i = 0; i < 50; ++i) {
    stray.timestampS += 0.1;
    dep.reports.push_back(stray);
  }
  const auto fix = dep.server.tryLocate2D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_LT(geom::distance(fix->fix.position, dep.reader.xy()), 0.06);
}

TEST(TagspinSystem, TooFewRigsWhenRigsNotHeard) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  EXPECT_EQ(dep.server.tryLocate2D({}).code(), ErrorCode::kTooFewRigs);

  // Only one of the two rigs present in the stream.
  rfid::ReportStream partial;
  for (const rfid::TagReport& r : dep.reports) {
    if (r.epc == rfid::Epc::forSimulatedTag(0)) partial.push_back(r);
  }
  EXPECT_EQ(dep.server.tryLocate2D(partial).code(), ErrorCode::kTooFewRigs);
}

TEST(TagspinSystem, ReRegisteringReplacesRig) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  // Move rig 0's registered center by 5 cm: the fix shifts accordingly.
  RigSpec moved;
  moved.center = {-0.15, 0.0, 0.0};
  moved.kinematics = defaultKinematics();
  dep.server.registerRig(rfid::Epc::forSimulatedTag(0), moved);
  EXPECT_EQ(dep.server.rigCount(), 2u);
  const auto fix = dep.server.tryLocate2D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  // The fix is now biased: registry state matters.
  EXPECT_GT(geom::distance(fix->fix.position, dep.reader.xy()), 0.02);
}

TEST(TagspinSystem, CollectObservationsAttachesModels) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  OrientationModel model;  // identity; presence still recorded per-EPC
  dep.server.setOrientationModel(rfid::Epc::forSimulatedTag(0), model);
  const auto obs = dep.server.collectObservationsRobust(dep.reports);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_GT(obs[0].snapshots.size(), 100u);
  EXPECT_GT(obs[1].snapshots.size(), 100u);
}

TEST(TagspinSystem, PreprocessConfigRespected) {
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  PreprocessConfig pp;
  pp.maxSnapshots = 64;
  dep.server.setPreprocessConfig(pp);
  const auto obs = dep.server.collectObservationsRobust(dep.reports);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_LE(obs[0].snapshots.size(), 64u);
  // Still locates, just coarser.
  const auto fix = dep.server.tryLocate2D(dep.reports);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_LT(geom::distance(fix->fix.position, dep.reader.xy()), 0.25);
}

TEST(TagspinSystem, LocateAllAntennasSplitsByPort) {
  // Two ports in one stream: port 0 carries a full deployment's reports,
  // port 3 only stray reads -- it must be omitted, not crash.
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  rfid::ReportStream mixed = dep.reports;  // all port 0
  rfid::TagReport stray;
  stray.epc = rfid::Epc::forSimulatedTag(0);
  stray.phaseRad = 0.3;
  stray.rssiDbm = -50.0;
  stray.frequencyHz = rf::mhz(922.0);
  stray.antennaPort = 3;
  mixed.push_back(stray);

  // Per-port calibration: split the stream by port, locate each slice.
  const auto port0 = dep.server.tryLocate2D(rfid::filterByAntenna(mixed, 0));
  ASSERT_TRUE(port0.hasValue()) << port0.error().message;
  EXPECT_LT(geom::distance(port0->fix.position, dep.reader.xy()), 0.06);
  EXPECT_EQ(dep.server.tryLocate2D(rfid::filterByAntenna(mixed, 3)).code(),
            ErrorCode::kTooFewRigs);
}

TEST(TagspinSystem, LocateAllAntennasMultiplePorts) {
  // Same deployment observed from two ports (reports duplicated onto port
  // 1 with a tiny phase rotation): both produce fixes.
  Deployment dep = makeDeployment({0.7, 2.2, 0.0});
  rfid::ReportStream mixed = dep.reports;
  for (rfid::TagReport r : dep.reports) {
    r.antennaPort = 1;
    r.phaseRad = geom::wrapTwoPi(r.phaseRad + 0.9);  // different port phase
    mixed.push_back(r);
  }
  for (int port : {0, 1}) {
    const auto fix = dep.server.tryLocate2D(rfid::filterByAntenna(mixed, port));
    ASSERT_TRUE(fix.hasValue()) << "port " << port << ": "
                                << fix.error().message;
    EXPECT_LT(geom::distance(fix->fix.position, dep.reader.xy()), 0.06)
        << "port " << port;
  }
}

TEST(TagspinSystem, CalibrateOrientationEndToEnd) {
  // Center-spin reports -> OrientationModel via the server facade.
  const rfid::Epc epc = rfid::Epc::forSimulatedTag(7);
  RigSpec rig;
  rig.center = {0.0, 0.0, 0.0};
  rig.kinematics = {0.0, 0.5, 0.0, geom::kPi / 2.0};
  const geom::Vec3 bench{1.0, 1.5, 0.0};

  SyntheticConfig sc;
  sc.count = 1200;
  sc.readerAzimuth = geom::azimuthOf(rig.center, bench);
  sc.noiseStd = 0.08;
  sc.orientation = [](double rho) { return 0.3 * std::cos(2.0 * rho); };
  const auto snaps = makeSnapshots(sc, rig.kinematics);

  TagspinSystem server;
  const OrientationModel model =
      server.calibrateOrientation(toReports(snaps, epc), epc, rig, bench);
  EXPECT_FALSE(model.isIdentity());
  EXPECT_NEAR(model.offsetAt(0.0) - model.offsetAt(geom::kPi / 4.0),
              0.3 * (std::cos(0.0) - std::cos(geom::kPi / 2.0)), 0.05);
}

}  // namespace
}  // namespace tagspin::core
