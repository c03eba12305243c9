// 3D calibration with the full pipeline:
//
//   * orientation-calibration prelude (paper section III-B Step 1) for each
//     spinning tag,
//   * 3D angle spectra (azimuth + polar) and the +-z mirror ambiguity,
//   * a third, vertically spinning tag to resolve the sign (the paper's
//     future-work extension) when no dead-space prior is available.
//
// Build & run:  ./build/examples/three_d_calibration
#include <cstdio>

#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  sim::ScenarioConfig scenario;
  scenario.seed = 33;
  scenario.rigPlaneZ = 0.095;  // disks on a desk, centers 9.5 cm up
  sim::World world = sim::makeTwoRigWorld(scenario);
  sim::addVerticalRig(world, {0.0, 0.4, scenario.rigPlaneZ}, scenario);

  const geom::Vec3 truth{0.6, 1.9, 1.25};  // antenna on a wall bracket
  sim::placeReaderAntenna(world, 0, truth);

  // --- orientation-calibration prelude (once per deployed tag) ----------
  std::printf("running the center-spin calibration prelude...\n");
  const auto models = eval::runCalibrationPrelude(world, 60.0);
  for (const auto& [epc, model] : models) {
    std::printf("  tag %s: fit residual %.3f rad\n", epc.toHex().c_str(),
                model.fitResidual());
  }

  // --- interrogate and locate in 3D -------------------------------------
  const rfid::ReportStream reports = sim::interrogate(world, {30.0, 0, 0});

  core::LocatorConfig lc;
  lc.zResolution = core::ZResolution::kBoth;  // no dead-space prior
  const core::TagspinSystem server =
      eval::buildTagspinServer(world, models, lc);

  const auto result = server.tryLocate3D(reports);
  if (!result) {
    std::printf("no fix: %s (%s)\n", core::errorCodeName(result.code()),
                result.error().message.c_str());
    return 1;
  }
  const core::Fix3D& fix = result->fix;
  std::printf("\nreader antenna estimated at (%.3f, %.3f, %.3f) m\n",
              fix.position.x, fix.position.y, fix.position.z);
  if (fix.mirrorCandidate) {
    std::printf("unresolved mirror candidate  (%.3f, %.3f, %.3f) m\n",
                fix.mirrorCandidate->x, fix.mirrorCandidate->y,
                fix.mirrorCandidate->z);
  } else {
    std::printf("(mirror candidate resolved by the vertical rig)\n");
  }
  std::printf("true position               (%.3f, %.3f, %.3f) m\n", truth.x,
              truth.y, truth.z);
  std::printf("error: %.1f cm\n",
              geom::distance(fix.position, truth) * 100.0);

  for (size_t i = 0; i < fix.directions.size(); ++i) {
    std::printf("  rig %zu: azimuth %.2f deg, polar %.2f deg, "
                "confidence %.3f\n",
                i, geom::radToDeg(fix.directions[i].azimuth),
                geom::radToDeg(fix.directions[i].polar),
                fix.directions[i].peakValue);
  }
  return 0;
}
