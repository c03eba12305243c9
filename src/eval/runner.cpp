#include "eval/runner.hpp"

#include <exception>

#include "core/preprocess.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {

core::RigSpec rigSpecOf(const sim::RigTag& rigTag) {
  const sim::SpinningRig& rig = rigTag.rig;
  return {rig.center,
          {rig.radiusM, rig.omegaRadPerS, rig.initialAngle,
           rig.tagPlaneOffset}};
}

core::DeploymentFile deploymentOf(const sim::World& world) {
  core::DeploymentFile deployment;
  for (const sim::RigTag& rt : world.rigs) {
    auto& rigs = rt.rig.plane == sim::SpinningRig::Plane::kHorizontal
                     ? deployment.rigs
                     : deployment.verticalRigs;
    rigs[rt.tag.epc] = rigSpecOf(rt);
  }
  return deployment;
}

std::map<Epc, core::OrientationModel> runCalibrationPrelude(
    const sim::World& world, double durationS) {
  std::map<Epc, core::OrientationModel> models;
  // The bench spot for the prelude: a surveyed reader position with a clear
  // view of the disk (any spot works; the fit solves for the offsets).
  const geom::Vec3 benchPos{1.2, 1.5, 0.0};

  for (const sim::RigTag& rt : world.rigs) {
    if (rt.rig.plane != sim::SpinningRig::Plane::kHorizontal) continue;
    // Center-spin world: same environment and reader, tag moved to the
    // disk center.
    sim::World cw = world;
    cw.rigs.clear();
    sim::RigTag center = rt;
    center.rig.radiusM = 0.0;
    center.rig.center.z = rt.rig.center.z;
    cw.rigs.push_back(center);
    cw.statics.clear();  // the bench calibration is done in isolation
    geom::Vec3 bench = benchPos;
    bench.z = rt.rig.center.z;
    sim::placeReaderAntenna(cw, 0, bench);

    sim::InterrogateConfig ic;
    ic.durationS = durationS;
    ic.antennaPort = 0;
    ic.streamId = 0xCA11B007ULL;
    const rfid::ReportStream reports = sim::interrogate(cw, ic);

    const std::vector<core::Snapshot> snaps =
        core::extractSnapshots(reports, rt.tag.epc);
    const double azimuth = geom::azimuthOf(center.rig.center, bench);
    models[rt.tag.epc] = core::OrientationModel::fit(
        snaps, rigSpecOf(center).kinematics, azimuth);
  }
  return models;
}

RunResult runExperiment(const RunnerConfig& config,
                        const Estimator& estimator) {
  RunResult result;
  std::map<Epc, core::OrientationModel> models;
  if (config.calibrateOrientation) {
    models = runCalibrationPrelude(config.world, config.calibrationDurationS);
  }

  std::mt19937_64 placementRng(
      sim::deriveSeed(config.seed, 0x9 + config.world.worldSeed));
  for (int trial = 0; trial < config.trials; ++trial) {
    sim::World w = config.world;
    geom::Vec3 truth = config.region.sample(placementRng, config.threeD);
    truth.z += config.world.rigs.empty() ? 0.0
                                         : config.world.rigs[0].rig.center.z;
    sim::placeReaderAntenna(w, config.antennaPort, truth);

    sim::InterrogateConfig ic;
    ic.durationS = config.durationS;
    ic.antennaPort = config.antennaPort;
    ic.streamId = static_cast<uint64_t>(trial) + 1;
    const rfid::ReportStream reports = sim::interrogate(w, ic);

    TrialContext ctx{w, reports, models, truth, config.antennaPort};
    try {
      const geom::Vec3 estimate = estimator(ctx);
      result.estimates.push_back(estimate);
      result.truths.push_back(truth);
      result.errors.push_back(config.threeD
                                  ? errorCm(estimate, truth)
                                  : errorCm(estimate.xy(), truth.xy()));
    } catch (const std::exception&) {
      ++result.failedTrials;
    }
  }
  result.summary = summarizeCombined(result.errors);
  return result;
}

}  // namespace tagspin::eval
