// The paper's motivating workflow, end to end:
//
//   A warehouse runs an RFID tag-tracking system with a four-antenna
//   Impinj-class reader.  Every tag-localization technique assumes the
//   antenna positions are known -- calibrating them by hand took the paper's
//   authors ~30 minutes with a laser rangefinder.  Tagspin replaces that
//   with two spinning tags and a few minutes of interrogation:
//
//   1. calibrate all four antenna positions with Tagspin,
//   2. then use the calibrated antennas to locate an unknown *asset tag*
//      by phase-difference multilateration (the downstream application the
//      calibration exists for).
//
// Build & run:  ./build/examples/warehouse_deployment
#include <cstdio>
#include <vector>

#include "baselines/backpos.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  sim::ScenarioConfig scenario;
  scenario.seed = 77;
  scenario.antennaCount = 4;
  sim::World world = sim::makeTwoRigWorld(scenario);

  // Four antennas mounted around the aisle (ground truth to recover).
  const std::vector<geom::Vec3> antennaTruth{
      {-1.4, 1.0, 0.0}, {-0.5, 2.1, 0.0}, {0.6, 1.9, 0.0}, {1.5, 1.1, 0.0}};
  for (int port = 0; port < 4; ++port) {
    sim::placeReaderAntenna(world, port, antennaTruth[(size_t)port]);
  }

  // An asset tag somewhere on a shelf -- the thing the warehouse actually
  // wants to find.
  sim::StaticTag asset;
  asset.tag = sim::TagInstance::make(rfid::Epc::forSimulatedTag(500),
                                     rfid::TagModelId::kTwoByTwo, 0xA55E7ULL);
  asset.position = {0.35, 1.75, 0.0};
  asset.planeAzimuth = 0.4;
  world.statics.push_back(asset);

  // --- Step 1: Tagspin calibrates every antenna ------------------------
  // One-time per-tag orientation prelude, then the localization server.
  const auto orientationModels = eval::runCalibrationPrelude(world, 60.0);
  const core::TagspinSystem server =
      eval::buildTagspinServer(world, orientationModels, {});

  std::printf("=== Step 1: antenna calibration via spinning tags ===\n");
  std::vector<geom::Vec3> antennaEst;
  std::vector<rfid::ReportStream> perPort;
  for (int port = 0; port < 4; ++port) {
    sim::InterrogateConfig ic;
    ic.durationS = 30.0;
    ic.antennaPort = port;
    ic.streamId = static_cast<uint64_t>(port);
    perPort.push_back(sim::interrogate(world, ic));
    const auto result = server.tryLocate2D(perPort.back());
    if (!result) {
      std::printf("antenna %d: no fix: %s (%s)\n", port + 1,
                  core::errorCodeName(result.code()),
                  result.error().message.c_str());
      return 1;
    }
    const core::Fix2D& fix = result->fix;
    antennaEst.push_back({fix.position.x, fix.position.y, 0.0});
    std::printf("antenna %d: estimated (%+.3f, %.3f), true (%+.3f, %.3f), "
                "error %.1f cm\n",
                port + 1, fix.position.x, fix.position.y,
                antennaTruth[(size_t)port].x, antennaTruth[(size_t)port].y,
                geom::distance(fix.position,
                               antennaTruth[(size_t)port].xy()) * 100.0);
  }

  // --- Step 2: use the calibrated antennas to locate the asset tag -----
  // Phase-difference multilateration: the asset tag's phase at each antenna
  // defines pairwise hyperbolae; the per-port cable phases are part of the
  // reader's factory calibration data.
  std::printf("\n=== Step 2: locating the asset tag with the calibrated "
              "antennas ===\n");
  std::vector<baselines::AnchorPhase> anchors;
  for (int port = 0; port < 4; ++port) {
    std::vector<double> phases;
    double lambda = 0.0;
    for (const rfid::TagReport& r : perPort[(size_t)port]) {
      if (r.epc == asset.tag.epc) {
        phases.push_back(r.phaseRad);
        lambda = r.wavelengthM();
      }
    }
    if (phases.size() < 3) continue;
    baselines::AnchorPhase anchor;
    anchor.position = antennaEst[(size_t)port];
    anchor.lambdaM = lambda;
    anchor.phase = geom::wrapTwoPi(
        geom::circularMean(phases) -
        world.reader.antenna(port).cableAndPortPhase);
    anchors.push_back(anchor);
  }
  // Phase positioning needs a constrained feasible region to resolve the
  // lambda/2 ambiguity (the BackPos insight): here, the shelf bay the asset
  // is known to sit in.
  const baselines::SearchBounds bounds{-0.4, 1.1, 1.2, 2.4};
  const geom::Vec2 assetFix = baselines::backposLocate(anchors, bounds);
  std::printf("asset tag estimated at (%+.3f, %.3f), true (%+.3f, %.3f), "
              "error %.1f cm\n",
              assetFix.x, assetFix.y, asset.position.x, asset.position.y,
              geom::distance(assetFix, asset.position.xy()) * 100.0);
  std::printf("\n(the whole calibration took 4 x 30 s of interrogation "
              "instead of ~30 minutes with a laser rangefinder)\n");
  return 0;
}
