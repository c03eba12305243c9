// Integration tests of the extension modules over the full simulator:
// LLRP wire round-trip through localization, hologram refinement, quality
// metrics on live fixes, motor ripple, and fusion.
#include <gtest/gtest.h>

#include "core/fusion.hpp"
#include "core/hologram.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "rfid/llrp.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

namespace tagspin {
namespace {

struct Scene {
  sim::World world;
  core::TagspinSystem server;
  geom::Vec3 truth;
  rfid::ReportStream reports;
};

Scene makeScene(uint64_t seed, const geom::Vec3& truth) {
  sim::ScenarioConfig sc;
  sc.seed = seed;
  sc.fixedChannel = true;
  Scene s{sim::makeTwoRigWorld(sc), core::TagspinSystem{}, truth, {}};
  const auto models = eval::runCalibrationPrelude(s.world, 60.0);
  s.server = eval::buildTagspinServer(s.world, models, {});
  sim::placeReaderAntenna(s.world, 0, truth);
  s.reports = sim::interrogate(s.world, {30.0, 0, 0});
  return s;
}

TEST(Extensions, LlrpWireRoundTripPreservesAccuracy) {
  const Scene s = makeScene(41, {0.6, 1.9, 0.0});
  const core::Fix2D direct = eval::fixOrThrow(s.server.tryLocate2D(s.reports));
  const rfid::ReportStream wire =
      rfid::llrp::decodeStream(rfid::llrp::encodeStream(s.reports));
  const core::Fix2D viaWire = eval::fixOrThrow(s.server.tryLocate2D(wire));
  // 12-bit phase + microsecond timestamps: differences are millimetric.
  EXPECT_LT(geom::distance(direct.position, viaWire.position), 0.01);
  EXPECT_LT(geom::distance(viaWire.position, s.truth.xy()), 0.15);
}

TEST(Extensions, HologramRefinementMatchesSpectra) {
  const Scene s = makeScene(42, {-0.5, 1.6, 0.0});
  const core::Fix2D spectra =
      eval::fixOrThrow(s.server.tryLocate2D(s.reports));

  auto obs = s.server.collectObservationsRobust(s.reports);
  const geom::Vec3 ref{spectra.position.x, spectra.position.y, 0.0};
  for (core::RigObservation& o : obs) {
    o.snapshots = core::calibrateOrientationAtPosition(
        o.snapshots, o.rig, o.orientation, ref);
  }
  const core::Fix2D holo = core::Hologram(obs).locate();
  EXPECT_LT(geom::distance(holo.position, s.truth.xy()), 0.15);
  EXPECT_LT(geom::distance(holo.position, spectra.position), 0.15);
}

TEST(Extensions, QualityMetricsTrackConditions) {
  // The same deployment scored in a benign vs a hostile RF environment:
  // confidence must rank them correctly.
  auto confidenceOf = [](uint64_t seed, double outlierProb) {
    sim::ScenarioConfig sc;
    sc.seed = seed;
    sc.fixedChannel = true;
    sim::World world = sim::makeTwoRigWorld(sc);
    rf::ChannelConfig cc = world.channel.config();
    cc.phaseOutlierProb = outlierProb;
    world.channel = rf::BackscatterChannel(cc, world.channel.scatterers());
    const core::TagspinSystem server =
        eval::buildTagspinServer(world, {}, {});
    sim::placeReaderAntenna(world, 0, {0.4, 1.6, 0.0});
    const auto reports = sim::interrogate(world, {20.0, 0, 0});
    // The served fix's confidence: spectrum quality of the used rigs and
    // the bearing geometry at the fix (core::fixConfidence), downgraded
    // for dropped rigs and robust-estimation warnings.
    const auto fix = server.tryLocate2D(reports);
    EXPECT_TRUE(fix.hasValue()) << fix.error().message;
    return fix ? fix->report.confidence : 0.0;
  };
  const double benign = confidenceOf(43, 0.0);
  const double hostile = confidenceOf(43, 0.45);
  EXPECT_GT(benign, hostile);
}

TEST(Extensions, MotorRippleDegradesGracefully) {
  auto errorWithJitter = [](double jitterRad) {
    sim::ScenarioConfig sc;
    sc.seed = 44;
    sc.fixedChannel = true;
    sim::World world = sim::makeTwoRigWorld(sc);
    for (sim::RigTag& rt : world.rigs) {
      rt.rig.speedJitterAmp = jitterRad;
    }
    const core::TagspinSystem server =
        eval::buildTagspinServer(world, {}, {});
    sim::placeReaderAntenna(world, 0, {0.5, 1.8, 0.0});
    const auto reports = sim::interrogate(world, {30.0, 0, 0});
    const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
    return geom::distance(fix.position, geom::Vec2{0.5, 1.8});
  };
  const double ideal = errorWithJitter(0.0);
  const double mild = errorWithJitter(geom::degToRad(1.0));
  const double severe = errorWithJitter(geom::degToRad(12.0));
  EXPECT_LT(mild, 0.15);       // ~1 degree ripple: still centimetric
  EXPECT_GT(severe, ideal);    // heavy ripple visibly hurts
}

TEST(Extensions, JitteredDiskAngleStaysNearNominal) {
  sim::SpinningRig rig;
  rig.omegaRadPerS = 0.5;
  rig.speedJitterAmp = geom::degToRad(3.0);
  rig.jitterPeriodS = 4.0;
  for (double t = 0.0; t < 20.0; t += 0.37) {
    EXPECT_NEAR(rig.diskAngle(t), 0.5 * t, geom::degToRad(3.0) + 1e-12);
  }
}

TEST(Extensions, FusionOverRoundsBeatsWorstRound) {
  sim::ScenarioConfig sc;
  sc.seed = 45;
  sc.fixedChannel = true;
  sim::World world = sim::makeTwoRigWorld(sc);
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  const geom::Vec3 truth{0.7, 2.2, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  std::vector<geom::Vec2> fixes;
  double worst = 0.0;
  for (uint64_t round = 1; round <= 5; ++round) {
    const auto reports = sim::interrogate(world, {10.0, 0, round});
    fixes.push_back(eval::fixOrThrow(server.tryLocate2D(reports)).position);
    worst = std::max(worst, geom::distance(fixes.back(), truth.xy()));
  }
  const geom::Vec2 fused = core::geometricMedian(fixes);
  EXPECT_LE(geom::distance(fused, truth.xy()), worst + 1e-12);
}

}  // namespace
}  // namespace tagspin
