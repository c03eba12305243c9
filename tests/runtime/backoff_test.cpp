#include "runtime/backoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace tagspin::runtime {
namespace {

// ---------------------------------------------------------------- backoff

TEST(Backoff, FirstDelayIsTheBase) {
  BackoffSchedule schedule({0.25, 30.0, 42});
  EXPECT_DOUBLE_EQ(schedule.nextDelayS(), 0.25);
  EXPECT_EQ(schedule.attempt(), 1);
}

TEST(Backoff, EveryDelayWithinJitterBounds) {
  // Decorrelated jitter: delay_n is uniform in [base, mult * delay_{n-1}],
  // capped.  Verify the bound pair holds at every step for several streams.
  for (uint64_t seed : {1ULL, 7ULL, 0xBAC0FFULL, 999ULL}) {
    BackoffConfig config{0.25, 30.0, seed};
    BackoffSchedule schedule(config);
    double previous = schedule.nextDelayS();
    EXPECT_DOUBLE_EQ(previous, config.baseDelayS);
    for (int i = 0; i < 50; ++i) {
      const double upper =
          std::min(config.maxDelayS, BackoffSchedule::kMultiplier * previous);
      const double delay = schedule.nextDelayS();
      EXPECT_GE(delay, config.baseDelayS) << "seed " << seed << " step " << i;
      EXPECT_LE(delay, upper) << "seed " << seed << " step " << i;
      previous = delay;
    }
  }
}

TEST(Backoff, CapIsReachedAndNeverExceeded) {
  BackoffConfig config{1.0, 8.0, 5};
  BackoffSchedule schedule(config);
  double maxSeen = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double d = schedule.nextDelayS();
    EXPECT_LE(d, config.maxDelayS);
    maxSeen = std::max(maxSeen, d);
  }
  // With multiplier 3 the schedule escalates to the cap region quickly;
  // over 200 draws the cap itself must have been hit.
  EXPECT_GT(maxSeen, 0.9 * config.maxDelayS);
}

TEST(Backoff, DeterministicInSeed) {
  BackoffSchedule a({0.25, 30.0, 1234});
  BackoffSchedule b({0.25, 30.0, 1234});
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.nextDelayS(), b.nextDelayS());
  }
  BackoffSchedule c({0.25, 30.0, 1235});
  bool anyDifferent = false;
  BackoffSchedule a2({0.25, 30.0, 1234});
  for (int i = 0; i < 20; ++i) {
    if (a2.nextDelayS() != c.nextDelayS()) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Backoff, ResetRestartsTheSchedule) {
  BackoffSchedule schedule({0.25, 30.0, 42});
  std::vector<double> first;
  for (int i = 0; i < 5; ++i) first.push_back(schedule.nextDelayS());
  schedule.reset();
  EXPECT_EQ(schedule.attempt(), 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(schedule.nextDelayS(), first[size_t(i)]);
  }
}

TEST(Backoff, DelaysGrowOnAverage) {
  // The point of backoff: later retries should usually wait longer.
  BackoffSchedule schedule({0.25, 120.0, 9});
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 3; ++i) early += schedule.nextDelayS();
  for (int i = 0; i < 7; ++i) schedule.nextDelayS();
  for (int i = 0; i < 3; ++i) late += schedule.nextDelayS();
  EXPECT_GT(late, early);
}

// ---------------------------------------------------------------- breaker

CircuitBreakerConfig tinyBreaker() {
  CircuitBreakerConfig c;
  c.failuresToOpen = 3;
  c.openCooldownS = 5.0;
  c.cooldownMultiplier = 2.0;
  c.maxCooldownS = 40.0;
  c.halfOpenFailuresToTrip = 2;
  return c;
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(tinyBreaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.onFailure(1.0);
  breaker.onFailure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.onFailure(3.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.probeDeadlineS(), 3.0 + 5.0);
}

TEST(CircuitBreaker, SuccessClearsTheFailureRun) {
  CircuitBreaker breaker(tinyBreaker());
  breaker.onFailure(1.0);
  breaker.onFailure(2.0);
  breaker.onSuccess();
  breaker.onFailure(3.0);
  breaker.onFailure(4.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, OpenRefusesUntilCooldownThenHalfOpenProbe) {
  CircuitBreaker breaker(tinyBreaker());
  for (double t : {1.0, 2.0, 3.0}) breaker.onFailure(t);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  EXPECT_FALSE(breaker.allowAttempt(4.0));
  EXPECT_FALSE(breaker.allowAttempt(7.9));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  // Cooldown elapsed: exactly one probe is let through.
  EXPECT_TRUE(breaker.allowAttempt(8.0));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allowAttempt(8.1));  // probe already in flight
}

TEST(CircuitBreaker, HalfOpenSuccessCloses) {
  CircuitBreaker breaker(tinyBreaker());
  for (double t : {1.0, 2.0, 3.0}) breaker.onFailure(t);
  ASSERT_TRUE(breaker.allowAttempt(8.0));
  breaker.onSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.halfOpenFailures(), 0);
  EXPECT_TRUE(breaker.allowAttempt(8.5));
}

TEST(CircuitBreaker, FailedProbeReopensWithEscalatedCooldown) {
  CircuitBreaker breaker(tinyBreaker());
  for (double t : {1.0, 2.0, 3.0}) breaker.onFailure(t);
  ASSERT_TRUE(breaker.allowAttempt(8.0));   // probe #1
  breaker.onFailure(9.0);                   // probe fails
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.cooldownS(), 10.0);  // 5 * 2
  EXPECT_DOUBLE_EQ(breaker.probeDeadlineS(), 19.0);
  EXPECT_FALSE(breaker.allowAttempt(18.9));
  EXPECT_TRUE(breaker.allowAttempt(19.0));  // probe #2
}

TEST(CircuitBreaker, TripsAfterRepeatedProbeFailures) {
  CircuitBreaker breaker(tinyBreaker());
  for (double t : {1.0, 2.0, 3.0}) breaker.onFailure(t);
  ASSERT_TRUE(breaker.allowAttempt(8.0));
  breaker.onFailure(9.0);                   // half-open failure #1
  ASSERT_TRUE(breaker.allowAttempt(19.0));
  breaker.onFailure(20.0);                  // half-open failure #2 -> trip
  EXPECT_EQ(breaker.state(), BreakerState::kTripped);
  EXPECT_FALSE(breaker.allowAttempt(1e9));  // tripped never self-heals

  breaker.resetTrip();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allowAttempt(1e9 + 1));
}

TEST(CircuitBreaker, CooldownEscalationIsCapped) {
  CircuitBreakerConfig config = tinyBreaker();
  config.halfOpenFailuresToTrip = 100;  // keep probing, never trip
  CircuitBreaker breaker(config);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) breaker.onFailure(t += 1.0);
  for (int i = 0; i < 10; ++i) {
    t = breaker.probeDeadlineS();
    ASSERT_TRUE(breaker.allowAttempt(t));
    breaker.onFailure(t + 0.5);
    EXPECT_LE(breaker.cooldownS(), config.maxCooldownS);
  }
  EXPECT_DOUBLE_EQ(breaker.cooldownS(), config.maxCooldownS);
}

TEST(CircuitBreaker, StateNamesAreStable) {
  EXPECT_STREQ(breakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(breakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(breakerStateName(BreakerState::kHalfOpen), "half_open");
  EXPECT_STREQ(breakerStateName(BreakerState::kTripped), "tripped");
}

}  // namespace
}  // namespace tagspin::runtime
