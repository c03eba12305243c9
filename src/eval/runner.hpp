// Experiment runner: repeated randomized localization trials over a
// simulated world, mirroring the paper's methodology (section VII-A): fix
// the rig deployment, move the reader to random positions in the
// surveillance region, repeat, and report error-distance statistics.
#pragma once

#include <functional>
#include <map>

#include "core/orientation_calibration.hpp"
#include "core/serialization.hpp"
#include "eval/metrics.hpp"
#include "rfid/report.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace tagspin::eval {

/// Everything an estimator may use for one trial.  `truth` is available so
/// that *diagnostic* estimators can report oracle quantities; honest
/// estimators must not read it.
struct TrialContext {
  const sim::World& world;
  const rfid::ReportStream& reports;
  const std::map<rfid::Epc, core::OrientationModel>& orientationModels;
  geom::Vec3 truth;
  int antennaPort = 0;
};

using Epc = rfid::Epc;

/// An estimator returns its position estimate (z = rig-plane height for 2D
/// systems).  Throwing marks the trial as failed (counted, excluded from
/// statistics).
using Estimator = std::function<geom::Vec3(const TrialContext&)>;

struct RunnerConfig {
  sim::World world;          // rig deployment + environment (reader moved per trial)
  sim::Region region;        // where reader positions are sampled
  int trials = 50;
  double durationS = 30.0;   // interrogation time per trial
  bool threeD = false;       // sample reader z from the region?
  int antennaPort = 0;
  /// Run the orientation-calibration prelude for every rig tag and pass the
  /// fitted models to the estimator.
  bool calibrateOrientation = true;
  double calibrationDurationS = 60.0;
  uint64_t seed = 99;        // trial randomness (reader placement)
};

struct RunResult {
  std::vector<ErrorCm> errors;
  std::vector<geom::Vec3> truths;
  std::vector<geom::Vec3> estimates;
  int failedTrials = 0;
  dsp::Summary summary;  // of combined errors
};

/// The deployed rig a simulated one stands for: its center and kinematics.
core::RigSpec rigSpecOf(const sim::RigTag& rigTag);

/// Every rig of `world` as a deployment keyed by its tag's EPC: horizontal
/// rigs in `rigs`, vertical ones in `verticalRigs`, no orientation model.
core::DeploymentFile deploymentOf(const sim::World& world);

/// Fit an orientation model for each rig tag in `world` via a center-spin
/// prelude (the paper's Step 1), reusing the world's environment.
std::map<Epc, core::OrientationModel> runCalibrationPrelude(
    const sim::World& world, double durationS);

RunResult runExperiment(const RunnerConfig& config,
                        const Estimator& estimator);

}  // namespace tagspin::eval
