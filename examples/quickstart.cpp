// Quickstart: locate one reader antenna in 2D with two spinning tags.
//
//   1. describe the deployment (two rigs 40 cm apart),
//   2. run the one-time orientation-calibration prelude per tag,
//   3. let the reader interrogate for 30 s (simulated here),
//   4. hand the LLRP report stream to the TagspinSystem server,
//   5. read back the fix with its grade and confidence (or the error code
//      saying why there is none).
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  // --- the physical deployment (simulated stand-in for real hardware) ---
  sim::ScenarioConfig scenario;
  scenario.seed = 2016;
  sim::World world = sim::makeTwoRigWorld(scenario);

  // The reader antenna sits somewhere unknown; we will recover this point.
  const geom::Vec3 truth{0.9, 2.1, 0.0};
  sim::placeReaderAntenna(world, 0, truth);

  // --- one-time prelude: fit each tag's phase-orientation model ----------
  // (tag at the disk center, reader at a surveyed bench spot; section III-B)
  const auto orientationModels = eval::runCalibrationPrelude(world, 60.0);
  std::printf("calibrated %zu tag orientation models\n",
              orientationModels.size());

  // --- interrogate: 30 seconds of EPC Gen2 inventory ---
  sim::InterrogateConfig ic;
  ic.durationS = 30.0;
  const rfid::ReportStream reports = sim::interrogate(world, ic);
  std::printf("collected %zu tag reports\n", reports.size());

  // --- the localization server ---
  const core::TagspinSystem server =
      eval::buildTagspinServer(world, orientationModels, {});

  const auto result = server.tryLocate2D(reports);
  if (!result) {
    std::printf("no fix: %s (%s)\n", core::errorCodeName(result.code()),
                result.error().message.c_str());
    return 1;
  }
  const core::Fix2D& fix = result->fix;
  std::printf("reader antenna estimated at (%.3f, %.3f) m\n", fix.position.x,
              fix.position.y);
  std::printf("true position              (%.3f, %.3f) m\n", truth.x, truth.y);
  std::printf("error: %.1f cm  [grade %s, confidence %.3f]\n",
              geom::distance(fix.position, truth.xy()) * 100.0,
              core::fixGradeName(result->report.grade),
              result->report.confidence);
  for (size_t i = 0; i < fix.directions.size(); ++i) {
    std::printf("  rig %zu: azimuth spectrum peak at %.2f deg "
                "(confidence %.3f)\n",
                i, geom::radToDeg(fix.directions[i].azimuth),
                fix.directions[i].peakValue);
  }
  return 0;
}
