// Full-pipeline integration tests: simulator -> Gen2 reports -> calibration
// prelude -> angle spectra -> fix, in 2D and 3D, under the complete noise
// model (phase noise, interference outliers, multipath, orientation effect,
// device diversity).
#include <gtest/gtest.h>

#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

namespace tagspin {
namespace {

sim::World makeWorld(uint64_t seed, bool fixedChannel = true,
                     double planeZ = 0.0) {
  sim::ScenarioConfig sc;
  sc.seed = seed;
  sc.fixedChannel = fixedChannel;
  sc.rigPlaneZ = planeZ;
  return sim::makeTwoRigWorld(sc);
}

core::TagspinSystem makeServer(const sim::World& world, bool calibrate) {
  std::map<rfid::Epc, core::OrientationModel> models;
  if (calibrate) models = eval::runCalibrationPrelude(world, 60.0);
  return eval::buildTagspinServer(world, models, {});
}

TEST(EndToEnd, TwoDimensionalAccuracy) {
  sim::World world = makeWorld(1);
  const core::TagspinSystem server = makeServer(world, true);
  // A handful of representative reader positions.
  const geom::Vec3 positions[] = {
      {0.8, 1.6, 0.0}, {-0.9, 2.2, 0.0}, {0.1, 2.8, 0.0}, {1.3, 1.2, 0.0}};
  double worst = 0.0;
  for (const geom::Vec3& truth : positions) {
    sim::World w = world;
    sim::placeReaderAntenna(w, 0, truth);
    const auto reports = sim::interrogate(w, {30.0, 0, 0});
    const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
    worst = std::max(worst, geom::distance(fix.position, truth.xy()));
  }
  // Paper regime: centimeter-level.  Allow generous headroom for the worst
  // of four placements under the full noise model.
  EXPECT_LT(worst, 0.20);
}

TEST(EndToEnd, ThreeDimensionalAccuracy) {
  sim::World world = makeWorld(2, true, 0.095);
  const core::TagspinSystem server = makeServer(world, true);
  const geom::Vec3 truth{0.7, 1.9, 0.095 + 0.85};
  sim::World w = world;
  sim::placeReaderAntenna(w, 0, truth);
  const auto reports = sim::interrogate(w, {30.0, 0, 0});
  const core::Fix3D fix = eval::fixOrThrow(server.tryLocate3D(reports));
  EXPECT_LT(geom::distance(fix.position, truth), 0.30);
  EXPECT_GT(fix.position.z, 0.3);  // the z>=plane prior picked up the height
}

TEST(EndToEnd, DeterministicGivenSeeds) {
  sim::World world = makeWorld(3);
  const core::TagspinSystem server = makeServer(world, false);
  sim::placeReaderAntenna(world, 0, {0.5, 2.0, 0.0});
  const auto r1 = sim::interrogate(world, {15.0, 0, 1});
  const auto r2 = sim::interrogate(world, {15.0, 0, 1});
  const core::Fix2D f1 = eval::fixOrThrow(server.tryLocate2D(r1));
  const core::Fix2D f2 = eval::fixOrThrow(server.tryLocate2D(r2));
  EXPECT_DOUBLE_EQ(f1.position.x, f2.position.x);
  EXPECT_DOUBLE_EQ(f1.position.y, f2.position.y);
}

TEST(EndToEnd, CalibrationImprovesAccuracyOnAverage) {
  // Across several placements, the orientation-calibrated pipeline beats
  // the uncalibrated one (paper Fig. 11(b), ~1.7x).
  sim::World world = makeWorld(4);
  const core::TagspinSystem calibrated = makeServer(world, true);
  const core::TagspinSystem raw = makeServer(world, false);

  double calAcc = 0.0, rawAcc = 0.0;
  const geom::Vec3 positions[] = {
      {0.6, 1.5, 0.0}, {-0.8, 2.0, 0.0}, {0.2, 2.6, 0.0}, {-1.2, 1.4, 0.0},
      {1.1, 2.3, 0.0}};
  for (const geom::Vec3& truth : positions) {
    sim::World w = world;
    sim::placeReaderAntenna(w, 0, truth);
    const auto reports = sim::interrogate(w, {30.0, 0, 2});
    calAcc += geom::distance(
        eval::fixOrThrow(calibrated.tryLocate2D(reports)).position,
        truth.xy());
    rawAcc += geom::distance(
        eval::fixOrThrow(raw.tryLocate2D(reports)).position, truth.xy());
  }
  EXPECT_LT(calAcc, rawAcc);
}

TEST(EndToEnd, ChannelHoppingHandled) {
  // Regulatory 16-channel hopping with per-channel grouping still localizes.
  sim::World world = makeWorld(5, /*fixedChannel=*/false);
  const core::TagspinSystem server = makeServer(world, true);
  const geom::Vec3 truth{0.4, 1.8, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const auto reports = sim::interrogate(world, {30.0, 0, 0});
  const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
  EXPECT_LT(geom::distance(fix.position, truth.xy()), 0.25);
}

TEST(EndToEnd, MultiAntennaCalibration) {
  // All four ports of a Speedway-class reader calibrated one by one.
  sim::ScenarioConfig sc;
  sc.seed = 6;
  sc.fixedChannel = true;
  sc.antennaCount = 4;
  sim::World world = sim::makeTwoRigWorld(sc);
  const core::TagspinSystem server = makeServer(world, true);

  const geom::Vec3 truths[4] = {
      {-1.2, 1.1, 0.0}, {-0.4, 2.3, 0.0}, {0.5, 2.1, 0.0}, {1.2, 1.0, 0.0}};
  for (int port = 0; port < 4; ++port) {
    sim::World w = world;
    for (int p = 0; p < 4; ++p) sim::placeReaderAntenna(w, p, truths[p]);
    const auto reports =
        sim::interrogate(w, {30.0, port, static_cast<uint64_t>(port)});
    const core::Fix2D fix = eval::fixOrThrow(server.tryLocate2D(reports));
    EXPECT_LT(geom::distance(fix.position, truths[port].xy()), 0.25)
        << "port " << port;
  }
}

TEST(EndToEnd, VerticalRigResolvesMirror) {
  sim::ScenarioConfig sc;
  sc.seed = 7;
  sc.fixedChannel = true;
  sc.rigPlaneZ = 1.0;
  sim::World world = sim::makeTwoRigWorld(sc);
  sim::addVerticalRig(world, {0.0, 0.4, 1.0}, sc);

  core::LocatorConfig lc;
  lc.zResolution = core::ZResolution::kBoth;
  const core::TagspinSystem server =
      eval::buildTagspinServer(world, {}, lc);

  // The reader is BELOW the rig plane.
  const geom::Vec3 truth{0.5, 1.8, 1.0 - 0.6};
  sim::placeReaderAntenna(world, 0, truth);
  const auto reports = sim::interrogate(world, {30.0, 0, 0});
  const core::Fix3D fix = eval::fixOrThrow(server.tryLocate3D(reports));
  EXPECT_FALSE(fix.mirrorCandidate.has_value());  // resolved
  EXPECT_LT(std::abs(fix.position.z - truth.z), 0.25);
}

}  // namespace
}  // namespace tagspin
