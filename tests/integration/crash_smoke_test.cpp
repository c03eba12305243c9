// End-to-end crash-consistency smoke: a reduced fig_crash run -- exhaustive
// power cuts over every writer workload, the seeded fault-schedule search,
// and the planted-bug falsification arm -- asserting the same gates the
// benchmark enforces.  Labeled crash_smoke so the sanitizer/CI scripts can
// select it with `ctest -L crash_smoke`; part of the default ctest run too.
#include <gtest/gtest.h>

#include "eval/crash.hpp"

namespace tagspin::eval {
namespace {

TEST(CrashSmoke, ExplorationSearchAndFalsificationAllPass) {
  CrashExploreConfig cfg;
  cfg.captureReports = 48;
  cfg.scheduleRounds = 32;

  const CrashEvalResult r = runCrashEval(cfg);

  // Every workload explored, every syscall boundary power-cut.
  ASSERT_EQ(r.workloads.size(), 5u);
  for (const ExploreStats& w : r.workloads) {
    EXPECT_GT(w.boundaries, 0u) << w.name;
    EXPECT_GT(w.points, 0u) << w.name;
    EXPECT_EQ(w.violations, 0u) << w.name;
  }
  EXPECT_GE(r.totalCrashPoints, 500u);
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);

  // The schedule search exercised crashing and surviving runs.
  EXPECT_EQ(r.scheduleRuns, 32u);
  EXPECT_GT(r.scheduleCrashes, 0u);
  EXPECT_LT(r.scheduleCrashes, r.scheduleRuns);
  EXPECT_EQ(r.scheduleViolations, 0u);

  // The harness catches the planted bug and shrinks a failing schedule.
  EXPECT_TRUE(r.brokenWriter.caught);
  EXPECT_TRUE(r.brokenWriter.scheduleFound);
  EXPECT_GE(r.brokenWriter.shrunkFaults, 1u);
  EXPECT_FALSE(r.brokenWriter.artifactJson.empty());

  EXPECT_TRUE(r.pass);
}

}  // namespace
}  // namespace tagspin::eval
