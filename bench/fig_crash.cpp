// Crash-consistency benchmark (no paper counterpart -- the durability
// falsifier this reproduction adds): every syscall boundary of the
// checkpoint, capture, and fleet fan-out write paths gets a simulated
// power cut, the post-crash disk is materialized under a family of
// write-back persistence variants, and real recovery is run against each
// image.  A deliberately broken writer (rename without the data fsync) is
// swept by the same harness and a failing fault schedule is shrunk to a
// minimal replayable artifact -- the proof that the harness can actually
// catch the bugs it claims to rule out.
//
// Usage: fig_crash [--seed=N] [--out=DIR] [--json[=PATH]] [captureReports]
//                  [scheduleRounds] [outPrefix]
// Writes DIR/<outPrefix>.json (default DIR "bench/out").  --json
// additionally writes the shared-schema sidecar (default PATH
// "BENCH_crash.json").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/crash.hpp"
#include "eval/report.hpp"

using namespace tagspin;

int main(int argc, char** argv) {
  eval::CrashExploreConfig cfg;
  bench::BenchArgs args;
  if (!bench::parseBenchArgs(argc, argv, cfg.seed, "BENCH_crash.json", args)) {
    return 2;
  }
  cfg.seed = args.seed;
  const std::string& sidecarPath = args.sidecarPath;
  const std::string& outDir = args.outDir;
  const std::vector<std::string>& pos = args.positional;
  const int reports = bench::positiveCount(args, 0, int(cfg.captureReports));
  const int rounds = bench::positiveCount(args, 1, int(cfg.scheduleRounds));
  if (reports == 0 || rounds == 0) return 2;
  cfg.captureReports = size_t(reports);
  cfg.scheduleRounds = size_t(rounds);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_crash");

  eval::printHeading("Crash consistency: exhaustive power-cut exploration");
  std::printf("seed 0x%llX, %zu capture reports, %zu schedule rounds\n",
              static_cast<unsigned long long>(cfg.seed), cfg.captureReports,
              cfg.scheduleRounds);

  const eval::CrashEvalResult r = eval::runCrashEval(cfg);

  std::printf("\n%-22s %12s %14s %12s\n", "workload", "boundaries",
              "crash points", "violations");
  for (const eval::ExploreStats& w : r.workloads) {
    std::printf("%-22s %12llu %14llu %12llu\n", w.name.c_str(),
                static_cast<unsigned long long>(w.boundaries),
                static_cast<unsigned long long>(w.points),
                static_cast<unsigned long long>(w.violations));
  }
  std::printf("total: %llu boundaries, %llu crash-point recoveries, %llu "
              "violations\n",
              static_cast<unsigned long long>(r.totalBoundaries),
              static_cast<unsigned long long>(r.totalCrashPoints),
              static_cast<unsigned long long>(r.totalViolations));
  std::printf("schedule search: %llu runs (%llu crashed), %llu recovery "
              "checks, %llu violations\n",
              static_cast<unsigned long long>(r.scheduleRuns),
              static_cast<unsigned long long>(r.scheduleCrashes),
              static_cast<unsigned long long>(r.scheduleChecks),
              static_cast<unsigned long long>(r.scheduleViolations));
  std::printf("broken writer: caught %s, failing schedule %s (%llu faults), "
              "shrunk to %llu fault(s)\n",
              r.brokenWriter.caught ? "yes" : "NO",
              r.brokenWriter.scheduleFound ? "found" : "NOT FOUND",
              static_cast<unsigned long long>(r.brokenWriter.scheduleFaults),
              static_cast<unsigned long long>(r.brokenWriter.shrunkFaults));
  if (!r.brokenWriter.artifactJson.empty()) {
    std::printf("minimal artifact: %s\n", r.brokenWriter.artifactJson.c_str());
  }
  for (const auto& v : r.violations) {
    std::printf("VIOLATION [%s] crashAtOp=%lld persist=%s: %s\n",
                v.workload.c_str(), static_cast<long long>(v.atOp),
                v.persistMode.c_str(), v.detail.c_str());
  }

  const std::string payload = eval::crashJson(r);
  std::ofstream json(prefix + ".json");
  json << payload;
  std::printf("\nwrote %s.json\n", prefix.c_str());

  bench::BenchRecord record;
  record.name = "crash";
  record.seed = cfg.seed;
  record.payload = payload;
  record.gate("crash_points_ge_2000", r.totalCrashPoints >= 2000);
  record.gate("zero_violations", r.totalViolations == 0);
  record.gate("schedule_search_clean", r.scheduleViolations == 0);
  record.gate("broken_writer_caught", r.brokenWriter.caught);
  record.gate("broken_writer_shrunk", r.brokenWriter.shrunk());
  record.metric("total_boundaries", double(r.totalBoundaries));
  record.metric("total_crash_points", double(r.totalCrashPoints));
  record.metric("total_violations", double(r.totalViolations));
  record.metric("schedule_runs", double(r.scheduleRuns));
  record.metric("schedule_crashes", double(r.scheduleCrashes));
  record.metric("broken_shrunk_faults", double(r.brokenWriter.shrunkFaults));
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: >= 2000 crash-point recoveries (%llu), zero "
              "invariant violations (%llu), planted fsync-ordering bug "
              "caught and shrunk to %llu fault(s)]\n",
              static_cast<unsigned long long>(r.totalCrashPoints),
              static_cast<unsigned long long>(r.totalViolations),
              static_cast<unsigned long long>(r.brokenWriter.shrunkFaults));

  return record.allGatesPass() ? 0 : 1;
}
