// Fig. 10 -- localization error CDFs: (a) 2D per-axis and combined,
// (b) 3D per-axis and combined.  Paper headline: 2D combined mean ~4-5 cm;
// 3D combined mean ~7.3 cm (std ~4.8 cm), z the worst axis because both
// rigs spin in the x-y plane (no vertical aperture diversity).
//
// Usage: fig10_localization_cdf [--seed=N] [--json[=PATH]] [--out=DIR]
//                               [trials2d trials3d]
// An unknown flag or a count that is not a positive integer exits 2.
// --json writes the machine-readable trajectory sidecar (default PATH
// "BENCH_fig10.json"); the exit code reflects its acceptance gates.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"

using namespace tagspin;

int main(int argc, char** argv) {
  bench::BenchArgs args;  // --out=DIR is accepted; only the sidecar is written
  if (!bench::parseBenchArgs(argc, argv, 99 /* eval::RunnerConfig default */,
                             "BENCH_fig10.json", args)) {
    return 2;
  }
  const int trials2d = bench::positiveCount(args, 0, 30);
  const int trials3d = bench::positiveCount(args, 1, 16);
  if (trials2d == 0 || trials3d == 0) return 2;
  const uint64_t seed = args.seed;
  const std::string& sidecarPath = args.sidecarPath;

  dsp::Summary s2d, s3d;

  eval::printHeading("Fig. 10(a): 2D localization error");
  {
    sim::ScenarioConfig sc;
    sc.seed = 10;
    sc.fixedChannel = true;
    eval::RunnerConfig rc;
    rc.world = sim::makeTwoRigWorld(sc);
    rc.region = sim::Region{};
    rc.trials = trials2d;
    rc.durationS = 30.0;
    rc.seed = seed;
    const auto res = eval::runExperiment(rc, eval::makeTagspin2D());
    s2d = eval::summarizeCombined(res.errors);
    eval::printErrorBreakdown("Tagspin 2D (x, y, combined)", res.errors);
    eval::printCdf("combined error", eval::combinedErrors(res.errors));
    std::printf("[paper: mean ~4-5 cm combined, 90%% < ~7.5 cm]\n");
  }

  eval::printHeading("Fig. 10(b): 3D localization error");
  {
    sim::ScenarioConfig sc;
    sc.seed = 10;
    sc.fixedChannel = true;
    sc.rigPlaneZ = 0.095;  // rigs on the desk, 9.5 cm above it
    eval::RunnerConfig rc;
    rc.world = sim::makeTwoRigWorld(sc);
    rc.region = sim::Region{};
    rc.trials = trials3d;
    rc.durationS = 30.0;
    rc.seed = seed;
    rc.threeD = true;
    const auto res = eval::runExperiment(rc, eval::makeTagspin3D());
    s3d = eval::summarizeCombined(res.errors);
    eval::printErrorBreakdown("Tagspin 3D (x, y, z, combined)", res.errors);
    eval::printCdf("combined error", eval::combinedErrors(res.errors));
    std::printf("[paper: mean ~7.3 cm combined (std ~4.8), z worse than x "
                "because the aperture lies in the x-y plane]\n");
  }

  // One machine-readable record: the gates hold the reproduction in the
  // paper's accuracy regime with margin for trial-count variance (the
  // paper reports ~4-5 cm 2D, ~7.3 cm 3D).
  bench::BenchRecord record;
  record.name = "fig10";
  record.seed = seed;
  // A gate over no samples fails.
  record.gate("cdf_2d_mean_le_10cm", s2d.count > 0 && s2d.mean <= 10.0);
  record.gate("cdf_2d_p90_le_20cm", s2d.count > 0 && s2d.p90 <= 20.0);
  record.gate("cdf_3d_mean_le_12cm", s3d.count > 0 && s3d.mean <= 12.0);
  record.gate("cdf_3d_p90_le_25cm", s3d.count > 0 && s3d.p90 <= 25.0);
  record.metric("mean_2d_cm", s2d.mean);
  record.metric("std_2d_cm", s2d.stddev);
  record.metric("median_2d_cm", s2d.median);
  record.metric("p90_2d_cm", s2d.p90);
  record.metric("mean_3d_cm", s3d.mean);
  record.metric("std_3d_cm", s3d.stddev);
  record.metric("median_3d_cm", s3d.median);
  record.metric("p90_3d_cm", s3d.p90);
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }
  return record.allGatesPass() ? 0 : 1;
}
