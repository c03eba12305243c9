// Single-target track management over the fix stream.
//
// The tracker turns the locator's one-shot fixes into a trajectory:
//
//  * two square-root UKF banks (constant-velocity and coordinated-turn)
//    run in lockstep on every accepted fix, and the active model -- the
//    one whose estimate is reported -- is chosen by windowed normalized
//    innovation squared (NIS) with hysteresis, so a reader that starts
//    turning hands the track to the CT model within a few fixes and
//    hands it back when the path straightens;
//  * each fix is vetted twice before it may touch the filters: the spin
//    self-diagnosis verdict (quarantine -> rejected outright, suspect ->
//    covariance inflated) and a chi-square Mahalanobis gate on the
//    innovation, which is what keeps multipath ghost fixes from walking
//    the track off the trajectory;
//  * lifecycle: tracks are born tentative, confirmed after `confirmHits`
//    accepted fixes, coast on the motion model through drop-out windows,
//    and are dropped -- requiring fresh initialization -- only after
//    `maxCoastS` without an accepted fix.  Surviving an outage therefore
//    means: state() never left {confirmed, coasting} and stats().reinits
//    stayed zero.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "core/mem_env.hpp"
#include "geom/vec.hpp"
#include "obs/metrics.hpp"
#include "track/measurement.hpp"
#include "track/motion.hpp"
#include "track/ukf.hpp"

namespace tagspin::track {

enum class TrackState {
  kDropped = 0,  // no live track; next accepted fix re-initializes
  kTentative,    // initialized, not yet confirmed
  kConfirmed,    // established track, fed by fresh fixes
  kCoasting,     // confirmed track riding the motion model through a gap
};
const char* trackStateName(TrackState state);

/// The fixed tracking policy (tracker.cpp): fixes whose 2-dof Mahalanobis
/// NIS exceeds chiSquareInv2(0.99) are rejected; a tentative track is
/// abandoned after 6 s without an accepted fix (tentative tracks have not
/// earned a long coast); (re)initialization starts from per-axis standard
/// deviations of 0.4 m, 0.6 m/s and 0.2 rad/s of turn rate; fixes the
/// diagnostics call suspect get R inflated 4x, and locator confidence
/// scores below 0.05 widen R proportionally (the score is relative
/// quality, not probability; the ellipse already carries the calibrated
/// uncertainty, so ordinary scores leave R alone).
struct TrackerConfig {
  MotionNoise noise;
  /// Accepted fixes needed to promote tentative -> confirmed.
  int confirmHits = 3;
  /// A confirmed track coasts at most this long before being dropped.
  double maxCoastS = 20.0;
  /// Fix-count window for the per-model NIS average driving selection.
  int nisWindow = 6;
  /// The inactive model must beat the active one by this factor (on
  /// windowed NIS) to take over -- hysteresis against chatter.
  double modelSwitchMargin = 1.25;
  /// Maneuver-adaptive process noise: when the active bank's windowed NIS
  /// exceeds 3.5, Q is inflated by their ratio (capped at adaptiveQMax) on
  /// subsequent predicts.  Straight stretches keep the heavy smoothing of
  /// the configured noise; turns get a responsive filter instead of
  /// innovation lag.  Set adaptiveQMax = 1 to disable.  The threshold is on
  /// a windowed mean of 2-dof NIS values (expectation 2), so 3.5 is
  /// roughly the 2-sigma maneuver alarm.
  double adaptiveQMax = 16.0;
  /// Innovation-based R calibration: the locator's confidence ellipse is
  /// an honest coverage region but often conservative as a 1-sigma noise
  /// model.  A slow multiplicative feedback scales R so the EWMA of the
  /// accepted-fix NIS settles at its chi-square(2) expectation; 0 turns
  /// the calibration off.  The scale is clamped to [0.2, 10] so a burst of
  /// outliers cannot talk the gate open.
  double rCalibrationRate = 0.15;
  /// NIS value the calibration steers toward.  The chi-square(2)
  /// expectation is 2; a higher target keeps R deliberately conservative
  /// (stronger smoothing) while the gate -- which tests against the
  /// as-reported R -- still accepts every honest fix.
  double rCalibrationTargetNis = 2.0;
  /// Bound on the retained estimate history (0 disables history).  The
  /// history is diagnostics, not filter state: eviction can never move an
  /// estimate, and the most recent *measurement-backed* estimate is pinned
  /// as an anchor so a long coast stays explainable even after its feeding
  /// fixes were evicted.
  size_t historyLimit = 256;
  /// Optional byte ledger the history is charged to.  A denied reservation
  /// sheds oldest-first; if nothing is left to shed the new entry is
  /// refused (counted, never thrown).
  core::MemArena* historyArena = nullptr;
};

/// One output sample of the tracker -- everything downstream consumers
/// (checkpoints, digests, the bench CSV) need, in POD form.
struct TrackEstimate {
  double timeS = 0.0;
  geom::Vec2 position;
  geom::Vec2 velocity;
  Cov2 covariance;
  TrackState state = TrackState::kDropped;
  MotionModelId model = MotionModelId::kConstantVelocity;
  /// NIS of the applied fix; 0 when this sample coasted.
  double nis = 0.0;
  bool usedMeasurement = false;
};

struct TrackerStats {
  uint64_t accepted = 0;
  uint64_t gateRejects = 0;
  uint64_t verdictRejects = 0;
  uint64_t coasts = 0;
  uint64_t modelSwitches = 0;
  uint64_t reinits = 0;
  uint64_t drops = 0;
  uint64_t historyEvicted = 0;  // oldest history entries shed under bound/pressure
  uint64_t historyRefused = 0;  // entries refused outright (arena empty + denied)

  double coastFraction() const {
    const uint64_t total = accepted + coasts;
    return total ? static_cast<double>(coasts) / static_cast<double>(total)
                 : 0.0;
  }
};

class Tracker {
 public:
  explicit Tracker(TrackerConfig config = {});
  ~Tracker();

  /// Resolve track.* instruments from `registry` (null detaches).
  void setMetrics(obs::MetricsRegistry* registry);

  /// Feed one fix.  Handles (re)initialization, gating and model
  /// selection; returns the estimate after processing.
  TrackEstimate onMeasurement(const TrackMeasurement& m);

  /// Advance to `timeS` with no fix (an empty / failed window): the track
  /// coasts on the active motion model, or is dropped past its budget.
  TrackEstimate onGap(double timeS);

  /// Re-seed a confirmed track from checkpointed state (supervisor
  /// restore).  Covariance restarts at the initialization diagonal.
  void seedFrom(double timeS, geom::Vec2 position, geom::Vec2 velocity);

  /// Forget everything; the next fix starts a fresh tentative track.
  void reset();

  bool hasEstimate() const { return state_ != TrackState::kDropped; }
  TrackState state() const { return state_; }
  MotionModelId activeModel() const { return activeModel_; }
  const TrackerStats& stats() const { return stats_; }
  const TrackerConfig& config() const { return config_; }
  /// Last emitted estimate (valid once hasEstimate()).
  const TrackEstimate& lastEstimate() const { return last_; }

  /// Bounded estimate history (newest at the back; empty when disabled).
  const std::deque<TrackEstimate>& history() const { return history_; }
  /// The pinned most-recent measurement-backed estimate; survives any
  /// amount of history eviction (coasting-safe).
  bool hasAnchor() const { return hasAnchor_; }
  const TrackEstimate& anchor() const { return anchor_; }

  /// Bytes of growable state (the history); the term the supervisor's
  /// memory footprint estimate charges for tracking.
  uint64_t memoryBytes() const {
    return uint64_t(history_.size()) * sizeof(TrackEstimate);
  }

 private:
  struct Bank {
    MotionModelId model;
    std::unique_ptr<SquareRootUkf> filter;
    std::deque<double> nisWindow;
    double windowedNis() const;
  };

  /// Every bank at the initialization diagonal around (position, velocity),
  /// turn rate 0, and the adaptive state back at its start.
  void resetBanks(geom::Vec2 position, geom::Vec2 velocity);
  void initializeAt(const TrackMeasurement& m, bool isReinit);
  void coastTo(double timeS);
  void dropTrack();
  Bank& active();
  const Bank& active() const;
  TrackEstimate makeEstimate(double timeS, double nis, bool used);
  void maybeSwitchModel();
  void publishGauges();
  void recordHistory(const TrackEstimate& estimate);
  void evictHistoryFront();
  void releaseHistory();

  TrackerConfig config_;
  std::vector<Bank> banks_;
  size_t activeIdx_ = 0;
  MotionModelId activeModel_ = MotionModelId::kConstantVelocity;
  TrackState state_ = TrackState::kDropped;
  double gateThreshold_ = 0.0;
  int hits_ = 0;
  bool everInitialized_ = false;
  double rScale_ = 1.0;    // innovation-calibrated R multiplier
  double ewmaNis_ = 2.0;   // EWMA of accepted-fix NIS (expectation 2)
  double filterTimeS_ = 0.0;   // time the filters are predicted to
  double lastAcceptS_ = 0.0;   // time of the last accepted fix
  TrackEstimate last_;
  std::deque<TrackEstimate> history_;
  TrackEstimate anchor_;
  bool hasAnchor_ = false;
  TrackerStats stats_;

  struct Instruments {
    obs::Counter* accepted = nullptr;
    obs::Counter* gateRejects = nullptr;
    obs::Counter* verdictRejects = nullptr;
    obs::Counter* coasts = nullptr;
    obs::Counter* modelSwitches = nullptr;
    obs::Counter* reinits = nullptr;
    obs::Counter* drops = nullptr;
    obs::Histogram* nis = nullptr;
    obs::Gauge* coastFraction = nullptr;
    obs::Gauge* state = nullptr;
    obs::Gauge* model = nullptr;
  } obs_;
};

}  // namespace tagspin::track
