// Retry pacing for flaky reader connections: capped exponential backoff
// with decorrelated jitter, plus a circuit breaker that stops hammering a
// reader that keeps failing its recovery probes.
//
// Everything here is driven by explicit timestamps (`nowS`) rather than a
// wall clock, so the whole retry schedule is deterministic under test and
// under the simulated soak harness -- no sleeps anywhere in the runtime.
#pragma once

#include <cstdint>

namespace tagspin::runtime {

struct BackoffConfig {
  /// First retry delay; also the lower bound of every jittered delay.
  double baseDelayS = 0.25;
  /// Hard cap on any single delay.
  double maxDelayS = 30.0;
  /// Seed for the jitter stream (the schedule is deterministic in it).
  uint64_t seed = 0xBAC0FFULL;
};

/// Capped exponential backoff with decorrelated jitter (the AWS
/// architecture-blog variant): sleep_n = min(cap, U(base, mult * sleep_{n-1})).
/// Decorrelation avoids the synchronized retry herds plain exponential
/// jitter produces when many sessions fail at once.
class BackoffSchedule {
 public:
  /// Decorrelated-jitter growth factor: the next delay is drawn uniformly
  /// from [base, kMultiplier * previous], then capped.
  static constexpr double kMultiplier = 3.0;

  explicit BackoffSchedule(BackoffConfig config = {});

  /// Delay to wait before the next attempt; advances the schedule.
  double nextDelayS();

  /// Back to the initial state (call after a successful connection).
  void reset();

  /// Attempts consumed since the last reset.
  int attempt() const { return attempt_; }

  const BackoffConfig& config() const { return config_; }

 private:
  BackoffConfig config_;
  double previousS_ = 0.0;
  int attempt_ = 0;
  uint64_t rngState_ = 0;
};

struct CircuitBreakerConfig {
  /// Consecutive failures (while closed) that open the circuit.
  int failuresToOpen = 5;
  /// Cooldown before the first half-open probe is allowed.
  double openCooldownS = 5.0;
  /// Cooldown growth after each failed probe, capped at maxCooldownS.
  double cooldownMultiplier = 2.0;
  double maxCooldownS = 120.0;
  /// Failed half-open probes (cumulative per open episode) that trip the
  /// breaker permanently; a tripped session is the supervisor's problem.
  int halfOpenFailuresToTrip = 3;
};

enum class BreakerState {
  kClosed,    // normal operation, attempts flow freely
  kOpen,      // failing; attempts refused until the cooldown elapses
  kHalfOpen,  // one probe attempt in flight
  kTripped,   // repeated probes failed; refuses attempts until resetTrip()
};
const char* breakerStateName(BreakerState state);

/// Classic three-state circuit breaker with a terminal "tripped" state.
/// Deadline-based: allowAttempt(nowS) performs the open -> half-open
/// transition when the cooldown has elapsed, so no timer callbacks exist.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// May a connection attempt start now?  In kOpen this returns true (and
  /// moves to kHalfOpen) exactly once per cooldown expiry -- the probe.
  bool allowAttempt(double nowS);

  void onSuccess();
  void onFailure(double nowS);

  BreakerState state() const { return state_; }
  int consecutiveFailures() const { return consecutiveFailures_; }
  int halfOpenFailures() const { return halfOpenFailures_; }
  double cooldownS() const { return cooldownS_; }
  /// Earliest time a half-open probe may start (meaningful in kOpen).
  double probeDeadlineS() const { return probeDeadlineS_; }

  /// Manual reset out of kTripped (operator intervention / supervisor
  /// replacing the session).
  void resetTrip();

 private:
  void open(double nowS);

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutiveFailures_ = 0;
  int halfOpenFailures_ = 0;
  double cooldownS_ = 0.0;
  double probeDeadlineS_ = 0.0;
};

}  // namespace tagspin::runtime
