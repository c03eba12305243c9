#include "eval/explore.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/io_sim.hpp"
#include "sim/mem_sim.hpp"

namespace tagspin::eval {
namespace {

sim::FaultSchedule schedule(std::initializer_list<uint64_t> ops) {
  sim::FaultSchedule s;
  for (uint64_t op : ops) s.push_back({op, sim::FaultKind::kEio});
  return s;
}

bool hasOp(const sim::FaultSchedule& s, uint64_t op) {
  return std::any_of(s.begin(), s.end(),
                     [op](const sim::Fault& f) { return f.opIndex == op; });
}

TEST(ShrinkSchedule, ReducesToTheSingleCulpritFault) {
  // Only the fault at op 7 matters.
  const auto fails = [](const sim::FaultSchedule& s) { return hasOp(s, 7); };
  const sim::FaultSchedule shrunk =
      ddminShrink(schedule({1, 3, 7, 9, 12, 20, 31, 44}), fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].opIndex, 7u);
}

TEST(ShrinkSchedule, KeepsAConjunctionOfTwoFaults) {
  // Failure needs BOTH op 2 and op 9 (an ordering bug armed by one fault
  // and fired by another).
  const auto fails = [](const sim::FaultSchedule& s) {
    return hasOp(s, 2) && hasOp(s, 9);
  };
  const sim::FaultSchedule shrunk =
      ddminShrink(schedule({0, 2, 4, 6, 9, 11, 13, 15}), fails);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk[0].opIndex, 2u);
  EXPECT_EQ(shrunk[1].opIndex, 9u);
  EXPECT_TRUE(fails(shrunk));
}

TEST(ShrinkSchedule, AlreadyMinimalScheduleIsReturnedVerbatim) {
  const auto fails = [](const sim::FaultSchedule& s) { return !s.empty(); };
  const sim::FaultSchedule shrunk = ddminShrink(schedule({5}), fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].opIndex, 5u);
}

// The same shrink on the allocation-fault element type.
sim::MemFaultSchedule memSchedule(std::initializer_list<uint64_t> ops) {
  sim::MemFaultSchedule s;
  for (uint64_t op : ops) s.push_back({op, sim::MemFaultKind::kDeny, 1});
  return s;
}

bool hasMemOp(const sim::MemFaultSchedule& s, uint64_t op) {
  return std::any_of(s.begin(), s.end(),
                     [op](const sim::MemFault& f) { return f.opIndex == op; });
}

TEST(ShrinkMemSchedule, ReducesToTheSingleCulpritFault) {
  const auto fails = [](const sim::MemFaultSchedule& s) {
    return hasMemOp(s, 11);
  };
  const sim::MemFaultSchedule shrunk =
      ddminShrink(memSchedule({2, 5, 11, 17, 23, 31}), fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].opIndex, 11u);
}

TEST(ShrinkMemSchedule, KeepsAConjunctionOfTwoFaults) {
  const auto fails = [](const sim::MemFaultSchedule& s) {
    return hasMemOp(s, 3) && hasMemOp(s, 12);
  };
  const sim::MemFaultSchedule shrunk =
      ddminShrink(memSchedule({0, 3, 6, 9, 12, 15, 18, 21}), fails);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_TRUE(fails(shrunk));
}

/// A fake workload of 10 boundaries whose checks fail only when a fault
/// lands on op 6.
RunOutcome<sim::Fault> fakeRun(const sim::FaultSchedule& s) {
  RunOutcome<sim::Fault> out;
  out.ops = 10;
  out.checks = 1;
  out.fired = s.size();
  if (hasOp(s, 6)) {
    out.violations = 1;
    out.first = Violation<sim::Fault>{"fake", -1, s, "", 0, "op 6 hurts"};
  }
  return out;
}

TEST(ExploreWorkload, RecordsTheOneFaultScheduleThatFails) {
  uint64_t sweptBoundaries = 0;
  const auto everyOp = [&sweptBoundaries](uint64_t boundaries) {
    sweptBoundaries = boundaries;
    sim::FaultSchedule faults;
    for (uint64_t k = 0; k < boundaries; ++k) {
      faults.push_back({k, sim::FaultKind::kCrash});
    }
    return faults;
  };
  std::vector<Violation<sim::Fault>> details;
  const ExploreStats stats =
      exploreWorkload("fake", fakeRun, everyOp, details);

  EXPECT_EQ(stats.name, "fake");
  EXPECT_EQ(stats.boundaries, 10u);  // from the fault-free run
  EXPECT_EQ(sweptBoundaries, 10u);
  EXPECT_EQ(stats.points, 10u);
  EXPECT_EQ(stats.fired, 10u);
  EXPECT_EQ(stats.violations, 1u);
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0].atOp, 6);
  ASSERT_EQ(details[0].schedule.size(), 1u);
  EXPECT_EQ(details[0].schedule[0].opIndex, 6u);
  EXPECT_EQ(details[0].schedule[0].kind, sim::FaultKind::kCrash);
  EXPECT_EQ(details[0].detail, "op 6 hurts");
}

TEST(ExploreWorkload, AFailingFaultFreeRunIsABaselineViolation) {
  std::vector<Violation<sim::Fault>> details;
  const auto failsAlways = [](const sim::FaultSchedule& s) {
    RunOutcome<sim::Fault> out;
    out.ops = 3;
    out.checks = 1;
    out.violations = 1;
    out.first = Violation<sim::Fault>{"fake", -1, s, "live", 0, "bad"};
    return out;
  };
  const auto nothing = [](uint64_t) { return sim::FaultSchedule{}; };
  const ExploreStats stats =
      exploreWorkload("fake", failsAlways, nothing, details);
  EXPECT_EQ(stats.boundaries, 3u);
  EXPECT_EQ(stats.points, 0u);
  EXPECT_EQ(stats.violations, 1u);
  ASSERT_EQ(details.size(), 1u);
  EXPECT_EQ(details[0].atOp, -1);
  EXPECT_TRUE(details[0].schedule.empty());
  EXPECT_EQ(details[0].detail, "baseline: bad");
}

sim::Fault drawEio(std::mt19937_64&, uint64_t op) {
  return {op, sim::FaultKind::kEio};
}

TEST(RandomSchedule, DrawsTheCountThenEachOpAndSortsByOp) {
  // The draw takes one more value per fault, after its op.
  const auto drawKind = [](std::mt19937_64& rng, uint64_t op) {
    return sim::Fault{op, rng() % 2 ? sim::FaultKind::kEio
                                    : sim::FaultKind::kEintr};
  };
  std::mt19937_64 rng(42);
  std::mt19937_64 replay(42);
  const sim::FaultSchedule s = randomSchedule<sim::Fault>(rng, 50, drawKind);

  const size_t n = 1 + replay() % kMaxScheduleFaults;
  std::vector<std::pair<uint64_t, sim::FaultKind>> want;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t op = replay() % 50;
    want.emplace_back(op, replay() % 2 ? sim::FaultKind::kEio
                                       : sim::FaultKind::kEintr);
  }
  EXPECT_EQ(rng(), replay());  // no hidden draws

  ASSERT_EQ(s.size(), n);
  std::vector<std::pair<uint64_t, sim::FaultKind>> got;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      EXPECT_LE(s[i - 1].opIndex, s[i].opIndex);
    }
    got.emplace_back(s[i].opIndex, s[i].kind);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(Falsify, AnEscapedPlantedBugFailsTheGate) {
  const auto never = [](const sim::FaultSchedule&) { return false; };
  bool artifactAsked = false;
  const PlantedBug bug = falsify(
      schedule({0, 1, 2}), std::mt19937_64(7), 16, drawEio, never,
      [&artifactAsked](const sim::FaultSchedule&) {
        artifactAsked = true;
        return std::string("{}");
      });
  EXPECT_FALSE(bug.ok());
  EXPECT_FALSE(bug.caught);
  EXPECT_FALSE(bug.scheduleFound);
  EXPECT_EQ(bug.scheduleFaults, 0u);
  EXPECT_EQ(bug.shrunkFaults, 0u);
  EXPECT_FALSE(artifactAsked);
  EXPECT_TRUE(bug.artifactJson.empty());
  EXPECT_EQ(bug.json(),
            "{\"caught\": false, \"schedule_found\": false, "
            "\"schedule_faults\": 0, \"shrunk_faults\": 0, "
            "\"artifact\": null}");
}

TEST(Falsify, ACaughtBugShrinksToItsCulprit) {
  const auto hitsOp3 = [](const sim::FaultSchedule& s) { return hasOp(s, 3); };
  const PlantedBug bug = falsify(
      schedule({0, 3, 6}), std::mt19937_64(7), 4, drawEio, hitsOp3,
      [](const sim::FaultSchedule& shrunk) {
        return "{\"op\": " + std::to_string(shrunk.at(0).opIndex) + "}";
      });
  EXPECT_TRUE(bug.caught);
  EXPECT_TRUE(bug.scheduleFound);
  EXPECT_GE(bug.scheduleFaults, 1u);
  EXPECT_EQ(bug.shrunkFaults, 1u);
  EXPECT_TRUE(bug.ok());
  EXPECT_EQ(bug.artifactJson, "{\"op\": 3}");
}

}  // namespace
}  // namespace tagspin::eval
