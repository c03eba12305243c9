// The three benchmark workloads.  Each drives the program only through the
// public API of core, robust, rfid, capture and runtime; everything under
// sim:: is the input generator and runs outside the timed units.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/serialization.hpp"
#include "harness.hpp"
#include "sim/world.hpp"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  ProbePart part = ProbePart::kBoth;
  ProbeNominal nominal;
  /// Normalization exponent k per end-to-end timing (see harness.hpp); a
  /// workload's per-layer timings take the k of its primary_op_ms.
  std::map<std::string, double> elasticity;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spansPath;

  double elasticityOf(const std::string& metric) const {
    const auto it = elasticity.find(metric);
    return it != elasticity.end() ? it->second : 1.0;
  }
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed output check; any entry makes the run incorrect.
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  Metrics metrics;
  /// Everything else worth printing: raw timings, probe readings, sample
  /// counts.  Goes to the detail line, not to the result line.
  Metrics detail;
};

RunResult runSurvey(const RunConfig& config);
RunResult runFleet(const RunConfig& config);
RunResult runIngest(const RunConfig& config);

/// The rig registry a deployment of `world` gives the server.
inline tagspin::core::DeploymentFile deploymentOf(
    const tagspin::sim::World& world) {
  tagspin::core::DeploymentFile deployment;
  for (const tagspin::sim::RigTag& rt : world.rigs) {
    tagspin::core::RigSpec& spec = deployment.rigs[rt.tag.epc];
    spec.center = rt.rig.center;
    spec.kinematics = {rt.rig.radiusM, rt.rig.omegaRadPerS,
                       rt.rig.initialAngle, rt.rig.tagPlaneOffset};
  }
  return deployment;
}

/// Shared tail of every workload: probe readings (host.* per-layer metrics
/// in a traced run, detail otherwise) and the probe CPU check.
void addHostMetrics(const Meter& meter, double wallS, bool traced,
                    RunResult& result);

/// One end-to-end timing from a meter series, reduced by median (or mean)
/// and multiplied by `scale`: the normalized value becomes the metric; the
/// raw value (host.raw.<metric>) and the sample count
/// (host.samples.<metric>) go to the detail line.
void reportTiming(const Meter& meter, const std::string& series,
                  const std::string& metric, const char* unit, double scale,
                  bool mean, RunResult& result);

}  // namespace perfbench
