#include "eval/oom.hpp"

#include <gtest/gtest.h>

namespace tagspin::eval {
namespace {

// A deliberately tiny exploration: a handful of points per workload, but
// every arm of the harness exercised.  The full-size sweep lives in
// oom_smoke_test / fig_oom.
TEST(OomEval, TinyExplorationHoldsEveryInvariant) {
  OomExploreConfig cfg;
  cfg.fleetSessions = 3;
  cfg.fleetShards = 2;
  cfg.pointsPerWorkload = 4;
  cfg.scheduleRounds = 2;
  cfg.replaySessions = 3;
  cfg.replayReports = 32;
  cfg.trackerFixes = 80;
  cfg.trackerHistoryLimit = 24;

  const OomEvalResult r = runOomEval(cfg);

  ASSERT_EQ(r.workloads.size(), 5u);
  for (const ExploreStats& w : r.workloads) {
    EXPECT_GT(w.boundaries, 0u) << w.name;
    EXPECT_EQ(w.points, 4u) << w.name;
    EXPECT_EQ(w.violations, 0u) << w.name;
  }
  EXPECT_EQ(r.totalPoints, 20u);
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_EQ(r.scheduleViolations, 0u);

  // The injected points actually denied reservations (the harness is not
  // passing because the faults never fired).
  uint64_t denials = 0;
  for (const ExploreStats& w : r.workloads) denials += w.fired;
  EXPECT_GT(denials, 0u);

  // Parity: attaching a fault-free environment changes nothing.
  EXPECT_TRUE(r.parityBitIdentical)
      << r.parityBaselineDigest << " vs " << r.paritySeamDigest;

  // Pressure: the budgeted fleet kept its fix rate and returned to zero.
  EXPECT_GE(r.pressureFixRate, kPressureMinFixRate);
  EXPECT_TRUE(r.pressureRecovered);
  EXPECT_GT(r.pressureShardBudgetBytes, 0u);

  // Falsification: the planted accounting bug is caught and shrunk.
  EXPECT_TRUE(r.brokenCache.caught);
  EXPECT_TRUE(r.brokenCache.scheduleFound);
  EXPECT_GE(r.brokenCache.shrunkFaults, 1u);
  EXPECT_LE(r.brokenCache.shrunkFaults, r.brokenCache.scheduleFaults);
  EXPECT_FALSE(r.brokenCache.artifactJson.empty());

  EXPECT_TRUE(r.pass);

  // The JSON payload is emitted and carries the verdict.
  const std::string json = oomJson(r);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(json.find("\"bit_identical\": true"), std::string::npos);
}

TEST(OomEval, SameSeedSameResult) {
  OomExploreConfig cfg;
  cfg.fleetSessions = 2;
  cfg.fleetShards = 1;
  cfg.pointsPerWorkload = 2;
  cfg.scheduleRounds = 1;
  cfg.replaySessions = 2;
  cfg.replayReports = 24;
  cfg.trackerFixes = 40;
  cfg.trackerHistoryLimit = 16;

  const OomEvalResult a = runOomEval(cfg);
  const OomEvalResult b = runOomEval(cfg);
  EXPECT_EQ(oomJson(a), oomJson(b));
}

}  // namespace
}  // namespace tagspin::eval
