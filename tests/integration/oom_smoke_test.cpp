// End-to-end resource-exhaustion smoke: a reduced fig_oom run --
// allocation failures injected across all five workloads, the seeded
// fault-schedule search, the zero-cost parity gate, the sustained-pressure
// arm, and the planted-bug falsification arm -- asserting the same gates
// the benchmark enforces.  Labeled oom_smoke so the sanitizer/CI scripts
// can select it with `ctest -L oom_smoke`; part of the default ctest run
// too.
#include <gtest/gtest.h>

#include "eval/oom.hpp"

namespace tagspin::eval {
namespace {

TEST(OomSmoke, ExplorationPressureParityAndFalsificationAllPass) {
  OomExploreConfig cfg;
  cfg.fleetSessions = 4;
  cfg.fleetShards = 2;
  cfg.pointsPerWorkload = 12;
  cfg.scheduleRounds = 6;
  cfg.replaySessions = 6;
  cfg.replayReports = 64;
  cfg.trackerFixes = 160;
  cfg.trackerHistoryLimit = 48;

  const OomEvalResult r = runOomEval(cfg);

  // Every workload explored, faults injected at sampled reservation
  // boundaries, zero invariant violations.
  ASSERT_EQ(r.workloads.size(), 5u);
  for (const ExploreStats& w : r.workloads) {
    EXPECT_GT(w.boundaries, 0u) << w.name;
    EXPECT_GT(w.points, 0u) << w.name;
    EXPECT_GT(w.fired, 0u) << w.name;
    EXPECT_EQ(w.violations, 0u) << w.name;
  }
  EXPECT_EQ(r.totalPoints, 60u);
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);

  // Multi-fault schedule search stays clean too.
  EXPECT_EQ(r.scheduleRuns, 6u);
  EXPECT_GT(r.scheduleDenials, 0u);
  EXPECT_EQ(r.scheduleViolations, 0u);

  // The seam costs nothing: fix digests bit-identical with accounting
  // off vs a fault-free environment attached.
  EXPECT_TRUE(r.parityBitIdentical)
      << r.parityBaselineDigest << " vs " << r.paritySeamDigest;

  // Under a sustained ~80%-utilization shard budget the fleet trims
  // instead of failing: fix rate holds and accounting returns to zero.
  EXPECT_GE(r.pressureFixRate, kPressureMinFixRate);
  EXPECT_TRUE(r.pressureRecovered);
  EXPECT_EQ(r.pressureEjections, 0u);

  // The harness catches the planted release-without-reserve bug and
  // shrinks a failing schedule to a minimal artifact.
  EXPECT_TRUE(r.brokenCache.caught);
  EXPECT_TRUE(r.brokenCache.scheduleFound);
  EXPECT_GE(r.brokenCache.shrunkFaults, 1u);
  EXPECT_FALSE(r.brokenCache.artifactJson.empty());

  EXPECT_TRUE(r.pass);
}

}  // namespace
}  // namespace tagspin::eval
