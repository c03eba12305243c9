// Failure-injection tests: the pipeline must fail loudly and informatively
// on degenerate inputs, and degrade gracefully on marginal ones.
#include <gtest/gtest.h>

#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "geom/angles.hpp"
#include "rfid/llrp.hpp"
#include "sim/faults.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

namespace tagspin {
namespace {

sim::World makeWorld(uint64_t seed = 11) {
  sim::ScenarioConfig sc;
  sc.seed = seed;
  sc.fixedChannel = true;
  return sim::makeTwoRigWorld(sc);
}

TEST(FailureInjection, EmptyStreamReportsTooFewRigs) {
  const sim::World world = makeWorld();
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  EXPECT_EQ(server.tryLocate2D({}).code(), core::ErrorCode::kTooFewRigs);
  EXPECT_EQ(server.tryLocate3D({}).code(), core::ErrorCode::kTooFewRigs);
}

TEST(FailureInjection, OneRigSilencedReportsTooFewRigs) {
  sim::World world = makeWorld();
  sim::placeReaderAntenna(world, 0, {0.6, 1.8, 0.0});
  auto reports = sim::interrogate(world, {10.0, 0, 0});
  // Drop every report of rig 1.
  const rfid::Epc silenced = world.rigs[1].tag.epc;
  rfid::ReportStream filtered;
  for (const rfid::TagReport& r : reports) {
    if (!(r.epc == silenced)) filtered.push_back(r);
  }
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  EXPECT_EQ(server.tryLocate2D(filtered).code(), core::ErrorCode::kTooFewRigs);
}

TEST(FailureInjection, TinySnapshotCountStillReturnsAFix) {
  sim::World world = makeWorld();
  sim::placeReaderAntenna(world, 0, {0.6, 1.8, 0.0});
  // One second of interrogation: a few dozen reads per rig.
  const auto reports = sim::interrogate(world, {1.0, 0, 0});
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
  // Coarse but finite and in the room.
  EXPECT_LT(geom::distance(fix.position, geom::Vec2{0.6, 1.8}), 1.5);
}

TEST(FailureInjection, ReaderOnRigAxisIsDegenerate) {
  // The reader collinear with both rig centers: rays are (anti)parallel.
  sim::World world = makeWorld();
  sim::placeReaderAntenna(world, 0, {2.5, 0.0, 0.0});  // on the rig line
  const auto reports = sim::interrogate(world, {15.0, 0, 0});
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  // Either an explicit failure or a wildly uncertain fix is acceptable;
  // what must not happen is a confidently wrong silent result, so we accept
  // a typed error OR a fix and simply require no crash.
  const auto fix = server.tryLocate2D(reports);
  if (fix) {
    // Noise separates the rays slightly; the fix can be anywhere along the
    // axis but must be finite.
    EXPECT_TRUE(std::isfinite(fix->fix.position.x));
    EXPECT_TRUE(std::isfinite(fix->fix.position.y));
  } else {
    EXPECT_NE(fix.code(), core::ErrorCode::kInternal) << fix.error().message;
  }
}

TEST(FailureInjection, SaturatedInterferenceDegradesGracefully) {
  // 30% of reads corrupted: error grows but the fix stays in the room.
  sim::ScenarioConfig sc;
  sc.seed = 12;
  sc.fixedChannel = true;
  sim::World world = sim::makeTwoRigWorld(sc);
  rf::ChannelConfig cc = world.channel.config();
  cc.phaseOutlierProb = 0.30;
  world.channel = rf::BackscatterChannel(cc, world.channel.scatterers());
  const geom::Vec3 truth{0.4, 2.0, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const auto reports = sim::interrogate(world, {30.0, 0, 0});
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
  EXPECT_LT(geom::distance(fix.position, truth.xy()), 0.8);
}

TEST(FailureInjection, StoppedDiskRejectedByValidation) {
  sim::World world = makeWorld();
  world.rigs[0].rig.omegaRadPerS = 0.0;
  EXPECT_THROW(sim::interrogate(world, {1.0, 0, 0}), std::logic_error);
}

TEST(FailureInjection, BadAntennaPort) {
  sim::World world = makeWorld();
  sim::InterrogateConfig ic;
  ic.antennaPort = 3;  // single-antenna reader
  EXPECT_THROW(sim::interrogate(world, ic), std::out_of_range);
}

TEST(FailureInjection, ProfileRequiresSnapshots) {
  core::RigKinematics kin{0.10, 0.5, 0.0, geom::kPi / 2.0};
  EXPECT_THROW(core::PowerProfile({}, kin, {}), std::invalid_argument);
}

// --- structured fault injection through the resilient path ---

TEST(FailureInjection, DuplicatesAndReordersDoNotMoveTheFix) {
  sim::World world = makeWorld(31);
  const geom::Vec3 truth{0.5, 1.9, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const auto clean = sim::interrogate(world, {15.0, 0, 0});
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});

  const auto cleanFix = server.tryLocate2D(clean);
  ASSERT_TRUE(cleanFix) << cleanFix.error().message;

  sim::FaultConfig fc;
  fc.duplicateProb = 0.15;
  fc.reorderProb = 0.10;
  sim::FaultInjector injector(fc);
  const auto dirty = injector.corruptReports(clean);
  ASSERT_GT(injector.stats().duplicatesInserted, 0u);
  ASSERT_GT(injector.stats().reordersApplied, 0u);

  const auto fix = server.tryLocate2D(dirty);
  ASSERT_TRUE(fix) << fix.error().message;
  // Dedup and sorting neutralise retransmits and swaps almost entirely.
  EXPECT_EQ(fix->report.grade, core::FixGrade::kFull);
  EXPECT_LT(geom::distance(fix->fix.position, cleanFix->fix.position), 0.10);
}

TEST(FailureInjection, DropoutWindowIsDroppedWhenCoverageGateDemandsIt) {
  sim::ScenarioConfig sc;
  sc.seed = 33;
  sc.fixedChannel = true;
  sim::World world = sim::makeRigRowWorld(sc, 3);
  const geom::Vec3 truth{0.4, 2.0, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const auto clean = sim::interrogate(world, {15.0, 0, 0});

  sim::FaultConfig fc;
  sim::TagDropout d;
  d.epc = world.rigs[0].tag.epc;
  d.startFraction = 0.35;
  d.endFraction = 0.65;  // rig 0 silent for 30% of the spin
  fc.dropouts.push_back(d);
  sim::FaultInjector injector(fc);
  const auto dirty = injector.corruptReports(clean);
  ASSERT_GT(injector.stats().reportsDropped, 0u);

  core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  core::RigHealthThresholds gate;
  gate.minArcCoverage = 0.75;  // a 30% contiguous hole fails this
  server.setHealthThresholds(gate);

  const auto fix = server.tryLocate2D(dirty);
  ASSERT_TRUE(fix) << fix.error().message;
  EXPECT_EQ(fix->report.grade, core::FixGrade::kDegraded);
  ASSERT_EQ(fix->report.droppedRigs.size(), 1u);
  EXPECT_EQ(fix->report.droppedRigs[0], 0u);
  EXPECT_NE(fix->report.droppedReasons[0].find("arc coverage"),
            std::string::npos)
      << fix->report.droppedReasons[0];
  // The two clean rigs carry the fix.
  EXPECT_LT(geom::distance(fix->fix.position, truth.xy()), 0.8);
}

TEST(FailureInjection, TornFramesRecoverThroughTolerantDecode) {
  sim::World world = makeWorld(37);
  const geom::Vec3 truth{0.6, 1.8, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const auto clean = sim::interrogate(world, {15.0, 0, 0});
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  const auto cleanFix = server.tryLocate2D(clean);
  ASSERT_TRUE(cleanFix) << cleanFix.error().message;

  sim::FaultConfig fc;
  fc.frameBitFlipProb = 0.05;
  fc.frameTruncateProb = 0.02;
  sim::FaultInjector injector(fc);
  const auto wire = rfid::llrp::encodeStream(clean);
  const auto dirty = injector.corruptBytes(wire);
  ASSERT_GT(injector.stats().framesTruncated, 0u);

  rfid::llrp::DecodeStats stats;
  const auto recovered = rfid::llrp::decodeStreamTolerant(dirty, &stats);
  // The overwhelming majority of frames survive...
  EXPECT_GT(recovered.size(), clean.size() * 8 / 10);
  EXPECT_GT(stats.bytesResynced, 0u);
  // ...and the fix barely moves.
  const auto fix = server.tryLocate2D(recovered);
  ASSERT_TRUE(fix) << fix.error().message;
  EXPECT_LT(geom::distance(fix->fix.position, cleanFix->fix.position), 0.15);
}

TEST(FailureInjection, OrientationPreludeNeedsRevolutionCoverage) {
  // A prelude that samples only a sliver of the rotation cannot constrain
  // the Fourier fit; the fit must refuse rather than extrapolate.
  const core::RigKinematics kin{0.0, 0.5, 0.0, geom::kPi / 2.0};
  std::vector<core::Snapshot> snaps;
  for (int i = 0; i < 100; ++i) {
    core::Snapshot s;
    s.timeS = 0.001 * i;  // 0.1 s: ~0.05 rad of rotation
    s.phaseRad = 1.0;
    s.lambdaM = 0.325;
    snaps.push_back(s);
  }
  EXPECT_THROW(core::OrientationModel::fit(snaps, kin, 0.0),
               std::runtime_error);
}

}  // namespace
}  // namespace tagspin
