#include "runtime/backoff.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace tagspin::runtime {

BackoffSchedule::BackoffSchedule(BackoffConfig config)
    : config_(config), rngState_(sim::splitmix64(config.seed)) {}

double BackoffSchedule::nextDelayS() {
  ++attempt_;
  if (previousS_ <= 0.0) {
    previousS_ = config_.baseDelayS;
    return previousS_;
  }
  // Uniform in [base, kMultiplier * previous] from a splitmix64 stream; the
  // 53-bit mantissa path gives a bias-free double in [0, 1).
  rngState_ = sim::splitmix64(rngState_);
  const double u =
      static_cast<double>(rngState_ >> 11) / 9007199254740992.0;  // 2^53
  const double hi = std::max(config_.baseDelayS, kMultiplier * previousS_);
  previousS_ = std::min(config_.maxDelayS,
                        config_.baseDelayS + u * (hi - config_.baseDelayS));
  return previousS_;
}

void BackoffSchedule::reset() {
  previousS_ = 0.0;
  attempt_ = 0;
  rngState_ = sim::splitmix64(config_.seed);
}

const char* breakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
    case BreakerState::kTripped: return "tripped";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {}

bool CircuitBreaker::allowAttempt(double nowS) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (nowS >= probeDeadlineS_) {
        state_ = BreakerState::kHalfOpen;
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      return false;  // one probe at a time
    case BreakerState::kTripped:
      return false;
  }
  return false;
}

void CircuitBreaker::onSuccess() {
  state_ = BreakerState::kClosed;
  consecutiveFailures_ = 0;
  halfOpenFailures_ = 0;
  cooldownS_ = 0.0;
}

void CircuitBreaker::onFailure(double nowS) {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutiveFailures_ >= config_.failuresToOpen) open(nowS);
      break;
    case BreakerState::kHalfOpen:
      if (++halfOpenFailures_ >= config_.halfOpenFailuresToTrip) {
        state_ = BreakerState::kTripped;
      } else {
        open(nowS);
      }
      break;
    case BreakerState::kOpen:
    case BreakerState::kTripped:
      // Failures while not attempting (e.g. a late transport close) don't
      // advance the breaker.
      break;
  }
}

void CircuitBreaker::open(double nowS) {
  state_ = BreakerState::kOpen;
  cooldownS_ = cooldownS_ <= 0.0
                   ? config_.openCooldownS
                   : std::min(config_.maxCooldownS,
                              cooldownS_ * config_.cooldownMultiplier);
  probeDeadlineS_ = nowS + cooldownS_;
}

void CircuitBreaker::resetTrip() {
  if (state_ == BreakerState::kTripped) onSuccess();
}

}  // namespace tagspin::runtime
