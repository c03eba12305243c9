// Fig. 6 -- generated power profiles with one spinning tag: the original
// Q(phi) vs. the proposed R(phi).  The scene follows the paper's: the
// tag's circular array centered at (0.40 m, 0), the reader at 180 degrees.
// The reproduction metric is the half-power peak width: R's peak is far
// sharper, so false candidates fade away.
#include <cstdio>

#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "core/spectrum.hpp"
#include "dsp/peaks.hpp"
#include "eval/report.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  eval::printHeading("Fig. 6: original profile Q(phi) vs proposed R(phi)");

  sim::ScenarioConfig sc;
  sc.seed = 6;
  sc.fixedChannel = true;
  sim::World world = sim::makeTwoRigWorld(sc);
  world.rigs.resize(1);
  world.rigs[0].rig.center = {0.40, 0.0, 0.0};
  // Reader along the 180-degree direction from the tag, 1.2 m away.
  const geom::Vec3 reader{0.40 - 1.20, 0.0 + 1e-3, 0.0};
  sim::placeReaderAntenna(world, 0, reader);

  const rfid::ReportStream reports = sim::interrogate(world, {30.0, 0, 0});
  const auto snaps =
      core::extractSnapshots(reports, world.rigs[0].tag.epc);
  const core::RigKinematics kin = eval::rigSpecOf(world.rigs[0]).kinematics;
  const double truth = geom::azimuthOf(world.rigs[0].rig.center, reader);
  std::printf("true direction: %.2f deg, %zu snapshots\n",
              geom::radToDeg(truth), snaps.size());

  for (const auto& [name, formula] :
       {std::pair{"Q(phi)", core::ProfileFormula::kRelativeQ},
        std::pair{"R(phi)", core::ProfileFormula::kEnhancedR}}) {
    core::ProfileConfig pc;
    pc.formula = formula;
    const core::PowerProfile profile(snaps, kin, pc);
    const auto samples = profile.sampleAzimuth(720);
    eval::printProfileAscii(name, samples, 10);

    const auto est = core::estimateAzimuth(profile, {});
    const size_t peakBin = dsp::argmax(samples);
    const double width =
        dsp::halfPowerWidth(samples, peakBin, /*circular=*/true) * 0.5;
    std::printf("  %s: peak at %7.2f deg (err %+6.2f deg), value %.3f, "
                "half-power width %.1f deg\n\n",
                name, geom::radToDeg(est.azimuth),
                geom::radToDeg(geom::circularDiff(est.azimuth, truth)),
                est.value, width);
  }
  std::printf("[paper: both profiles peak toward the reader; R's peak is "
              "far sharper, suppressing false candidates]\n");
  return 0;
}
