// Resource-exhaustion benchmark (no paper counterpart -- the allocation
// twin of fig_crash): every reservation boundary of five workloads --
// fleet steady state, session connect storm, capture-replay fan-out,
// tracker ghost burst, shard checkpoint save -- gets an injected
// allocation failure (deny / burst / cliff / poison, cycled), and after
// every injected run the no-crash / no-leak / isolation / budget /
// full-recovery invariants are checked.  A zero-injection parity gate
// proves the accounting seam itself costs nothing (bit-identical fix
// digests), a sustained-pressure arm proves the fleet keeps its fix rate
// while trimming inside an ~80%-utilization shard budget, and a planted
// release-without-reserve cache is swept, caught, and its failing
// schedule shrunk to a minimal replayable artifact.
//
// Usage: fig_oom [--seed=N] [--out=DIR] [--json[=PATH]] [pointsPerWorkload]
//                [scheduleRounds] [outPrefix]
// Writes DIR/<outPrefix>.json (default DIR "bench/out").  --json
// additionally writes the shared-schema sidecar (default PATH
// "BENCH_oom.json").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/oom.hpp"
#include "eval/report.hpp"

using namespace tagspin;

int main(int argc, char** argv) {
  eval::OomExploreConfig cfg;
  bench::BenchArgs args;
  if (!bench::parseBenchArgs(argc, argv, cfg.seed, "BENCH_oom.json", args)) {
    return 2;
  }
  cfg.seed = args.seed;
  const std::string& sidecarPath = args.sidecarPath;
  const std::string& outDir = args.outDir;
  const std::vector<std::string>& pos = args.positional;
  const int points = bench::positiveCount(args, 0, int(cfg.pointsPerWorkload));
  const int rounds = bench::positiveCount(args, 1, int(cfg.scheduleRounds));
  if (points == 0 || rounds == 0) return 2;
  cfg.pointsPerWorkload = size_t(points);
  cfg.scheduleRounds = size_t(rounds);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_oom");

  eval::printHeading(
      "Resource exhaustion: exhaustive allocation-failure exploration");
  std::printf("seed 0x%llX, %zu sessions x %zu shards, %zu points per "
              "workload, %zu schedule rounds\n",
              static_cast<unsigned long long>(cfg.seed), cfg.fleetSessions,
              cfg.fleetShards, cfg.pointsPerWorkload, cfg.scheduleRounds);

  const eval::OomEvalResult r = eval::runOomEval(cfg);

  std::printf("\n%-22s %12s %10s %10s %12s\n", "workload", "boundaries",
              "points", "denials", "violations");
  for (const eval::ExploreStats& w : r.workloads) {
    std::printf("%-22s %12llu %10llu %10llu %12llu\n", w.name.c_str(),
                static_cast<unsigned long long>(w.boundaries),
                static_cast<unsigned long long>(w.points),
                static_cast<unsigned long long>(w.fired),
                static_cast<unsigned long long>(w.violations));
  }
  std::printf("total: %llu boundaries, %llu failure points, %llu "
              "violations\n",
              static_cast<unsigned long long>(r.totalBoundaries),
              static_cast<unsigned long long>(r.totalPoints),
              static_cast<unsigned long long>(r.totalViolations));
  std::printf("schedule search: %llu runs (%llu denials), %llu violations\n",
              static_cast<unsigned long long>(r.scheduleRuns),
              static_cast<unsigned long long>(r.scheduleDenials),
              static_cast<unsigned long long>(r.scheduleViolations));
  std::printf("parity: %s (baseline %s, seam %s)\n",
              r.parityBitIdentical ? "bit-identical" : "DIVERGED",
              r.parityBaselineDigest.c_str(), r.paritySeamDigest.c_str());
  std::printf("pressure: fix rate %.4f at %.1f%% utilization (budget %llu "
              "B/shard), %llu trims, %llu ejections, %llu denied reserves, "
              "recovered %s\n",
              r.pressureFixRate, 100.0 * r.pressureUtilization,
              static_cast<unsigned long long>(r.pressureShardBudgetBytes),
              static_cast<unsigned long long>(r.pressureTrims),
              static_cast<unsigned long long>(r.pressureEjections),
              static_cast<unsigned long long>(r.pressureDeniedReserves),
              r.pressureRecovered ? "yes" : "NO");
  std::printf("broken cache: caught %s, failing schedule %s (%llu faults), "
              "shrunk to %llu fault(s)\n",
              r.brokenCache.caught ? "yes" : "NO",
              r.brokenCache.scheduleFound ? "found" : "NOT FOUND",
              static_cast<unsigned long long>(r.brokenCache.scheduleFaults),
              static_cast<unsigned long long>(r.brokenCache.shrunkFaults));
  if (!r.brokenCache.artifactJson.empty()) {
    std::printf("minimal artifact: %s\n", r.brokenCache.artifactJson.c_str());
  }
  for (const auto& v : r.violations) {
    std::printf("VIOLATION [%s] failAtOp=%lld: %s\n", v.workload.c_str(),
                static_cast<long long>(v.atOp), v.detail.c_str());
  }

  const std::string payload = eval::oomJson(r);
  std::ofstream json(prefix + ".json");
  json << payload;
  std::printf("\nwrote %s.json\n", prefix.c_str());

  bench::BenchRecord record;
  record.name = "oom";
  record.seed = cfg.seed;
  record.payload = payload;
  record.gate("oom_points_ge_500", r.totalPoints >= 500);
  record.gate("zero_violations", r.totalViolations == 0);
  record.gate("schedule_search_clean", r.scheduleViolations == 0);
  record.gate("parity_bit_identical", r.parityBitIdentical);
  record.gate("pressure_fix_rate_ge_99",
              r.pressureFixRate >= eval::kPressureMinFixRate);
  record.gate("pressure_recovered", r.pressureRecovered);
  record.gate("broken_cache_caught", r.brokenCache.caught);
  record.gate("broken_cache_shrunk", r.brokenCache.shrunk());
  record.metric("total_boundaries", double(r.totalBoundaries));
  record.metric("total_points", double(r.totalPoints));
  record.metric("total_violations", double(r.totalViolations));
  record.metric("schedule_runs", double(r.scheduleRuns));
  record.metric("pressure_fix_rate", r.pressureFixRate);
  record.metric("pressure_utilization", r.pressureUtilization);
  record.metric("pressure_trims", double(r.pressureTrims));
  record.metric("broken_shrunk_faults", double(r.brokenCache.shrunkFaults));
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: >= 500 allocation-failure points (%llu), zero "
              "invariant violations (%llu), fix rate %.4f under sustained "
              "pressure, parity %s, planted accounting bug caught and "
              "shrunk to %llu fault(s)]\n",
              static_cast<unsigned long long>(r.totalPoints),
              static_cast<unsigned long long>(r.totalViolations),
              r.pressureFixRate,
              r.parityBitIdentical ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(r.brokenCache.shrunkFaults));

  return record.allGatesPass() ? 0 : 1;
}
