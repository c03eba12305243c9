// Fig. 1 -- the toy example: three spinning tags anchored in the
// infrastructure, each mimicking a circular antenna array; each tag's power
// profile has a sharp peak at the direction of the reader, and the three
// rays intersect at the reader.
#include <cstdio>

#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "core/spectrum.hpp"
#include "eval/report.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "geom/ray.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  eval::printHeading(
      "Fig. 1: power profiles of three spinning tags + ray intersection");

  sim::ScenarioConfig sc;
  sc.seed = 7;
  sc.fixedChannel = true;
  sim::World world = sim::makeTwoRigWorld(sc);
  // Third rig, as in the figure's three-tag scene.
  world.rigs.push_back(world.rigs[0]);
  world.rigs[2].rig.center = {0.0, 0.6, 0.0};
  world.rigs[2].tag =
      sim::TagInstance::make(rfid::Epc::forSimulatedTag(2),
                             sc.tagModel, 0xF1E57ULL);

  const geom::Vec3 reader{1.1, 2.3, 0.0};
  sim::placeReaderAntenna(world, 0, reader);
  const rfid::ReportStream reports = sim::interrogate(world, {30.0, 0, 0});

  std::vector<geom::Ray2> rays;
  for (size_t i = 0; i < world.rigs.size(); ++i) {
    const sim::RigTag& rt = world.rigs[i];
    const auto snaps = core::extractSnapshots(reports, rt.tag.epc);
    core::ProfileConfig pc;  // enhanced R by default
    const core::PowerProfile profile(snaps, eval::rigSpecOf(rt).kinematics,
                                     pc);
    const auto spectrum = profile.sampleAzimuth(360);
    char name[64];
    std::snprintf(name, sizeof name, "tag T%zu at (%.2f, %.2f), %zu snapshots",
                  i + 1, rt.rig.center.x, rt.rig.center.y, snaps.size());
    eval::printProfileAscii(name, spectrum, 10);

    const auto est = core::estimateAzimuth(profile, {});
    const double truth = geom::azimuthOf(rt.rig.center, reader);
    std::printf("  peak at %7.2f deg   (true direction %7.2f deg)\n",
                geom::radToDeg(est.azimuth), geom::radToDeg(truth));
    rays.push_back({rt.rig.center.xy(), est.azimuth});
  }

  const auto fix = geom::leastSquaresIntersection(rays);
  if (fix) {
    std::printf(
        "\nintersection of the three rays: (%.3f, %.3f) m; "
        "reader truly at (%.3f, %.3f) m; error %.2f cm\n",
        fix->x, fix->y, reader.x, reader.y,
        geom::distance(*fix, reader.xy()) * 100.0);
  }
  return 0;
}
