#include "eval/crash.hpp"

#include <gtest/gtest.h>

namespace tagspin::eval {
namespace {

TEST(CrashEval, SmallExplorationHoldsEveryInvariant) {
  CrashExploreConfig cfg;
  cfg.captureReports = 24;
  cfg.scheduleRounds = 16;

  const CrashEvalResult r = runCrashEval(cfg);
  EXPECT_EQ(r.workloads.size(), 5u);
  EXPECT_GT(r.totalBoundaries, 0u);
  EXPECT_GT(r.totalCrashPoints, r.totalBoundaries);
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_EQ(r.scheduleRuns, 16u);
  EXPECT_EQ(r.scheduleViolations, 0u);
  EXPECT_TRUE(r.pass);

  const std::string json = crashJson(r);
  EXPECT_NE(json.find("\"total_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
}

TEST(CrashEval, PlantedFsyncOrderingBugIsCaughtAndShrunk) {
  CrashExploreConfig cfg;
  // Keep the correct-writer arms small: this test is about the broken one.
  cfg.captureReports = 8;
  cfg.scheduleRounds = 4;

  const CrashEvalResult r = runCrashEval(cfg);
  const PlantedBug& bug = r.brokenWriter;
  EXPECT_TRUE(bug.caught);
  ASSERT_TRUE(bug.scheduleFound);
  EXPECT_GE(bug.shrunkFaults, 1u);
  EXPECT_LE(bug.shrunkFaults, bug.scheduleFaults);
  EXPECT_TRUE(bug.ok());
  // The artifact is a self-contained replay recipe.
  EXPECT_NE(bug.artifactJson.find("\"schedule\""), std::string::npos);
  EXPECT_NE(bug.artifactJson.find("\"fault_seed\""), std::string::npos);
  // The planted bug does not poison the correct writers' tally.
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_TRUE(r.pass);
}

TEST(CrashEval, ResultsAreDeterministicPerSeed) {
  CrashExploreConfig cfg;
  cfg.captureReports = 16;
  cfg.scheduleRounds = 8;
  cfg.seed = 1234;

  const std::string a = crashJson(runCrashEval(cfg));
  const std::string b = crashJson(runCrashEval(cfg));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tagspin::eval
