#include "track/tracker.hpp"

#include <algorithm>
#include <cmath>

#include "track/kalman.hpp"

namespace tagspin::track {

namespace {

// The fixed policy TrackerConfig's comment describes.
constexpr double kGateProbability = 0.99;
constexpr double kTentativeMaxCoastS = 6.0;
constexpr double kInitPosStdM = 0.4;
constexpr double kInitVelStdMps = 0.6;
// The coordinated-turn bank's turn rate starts at 0; this nonzero prior std
// is what keeps the omega column of the covariance observable.
constexpr double kInitTurnRateStd = 0.2;
constexpr double kSuspectInflation = 4.0;
constexpr double kLowConfidence = 0.05;
constexpr double kAdaptiveQNis = 3.5;
constexpr double kRScaleMin = 0.2;
constexpr double kRScaleMax = 10.0;

Cov2 scaled(const Cov2& r, double s) {
  Cov2 out = r;
  out.xx *= s;
  out.xy *= s;
  out.yy *= s;
  return out;
}

}  // namespace

const char* trackStateName(TrackState state) {
  switch (state) {
    case TrackState::kDropped:
      return "dropped";
    case TrackState::kTentative:
      return "tentative";
    case TrackState::kConfirmed:
      return "confirmed";
    case TrackState::kCoasting:
      return "coasting";
  }
  return "unknown";
}

double Tracker::Bank::windowedNis() const {
  if (nisWindow.empty()) return 0.0;
  double sum = 0.0;
  for (double v : nisWindow) sum += v;
  return sum / static_cast<double>(nisWindow.size());
}

Tracker::Tracker(TrackerConfig config) : config_(std::move(config)) {
  gateThreshold_ = chiSquareInv2(kGateProbability);
  for (const MotionModelId model :
       {MotionModelId::kConstantVelocity, MotionModelId::kCoordinatedTurn}) {
    banks_.push_back(
        {model, std::make_unique<SquareRootUkf>(model, config_.noise), {}});
  }
  activeIdx_ = 0;
  activeModel_ = banks_[0].model;
}

Tracker::~Tracker() { releaseHistory(); }

void Tracker::setMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    obs_ = {};
    return;
  }
  obs_.accepted = registry->counter("track.fixes_accepted");
  obs_.gateRejects = registry->counter("track.gate_rejects");
  obs_.verdictRejects = registry->counter("track.verdict_rejects");
  obs_.coasts = registry->counter("track.coasts");
  obs_.modelSwitches = registry->counter("track.model_switches");
  obs_.reinits = registry->counter("track.reinits");
  obs_.drops = registry->counter("track.drops");
  obs_.nis = registry->histogram("track.nis");
  obs_.coastFraction = registry->gauge("track.coast_fraction");
  obs_.state = registry->gauge("track.state");
  obs_.model = registry->gauge("track.model");
}

Tracker::Bank& Tracker::active() { return banks_[activeIdx_]; }
const Tracker::Bank& Tracker::active() const { return banks_[activeIdx_]; }

void Tracker::reset() {
  state_ = TrackState::kDropped;
  hits_ = 0;
  everInitialized_ = false;
  filterTimeS_ = 0.0;
  lastAcceptS_ = 0.0;
  last_ = {};
  releaseHistory();
  hasAnchor_ = false;
  anchor_ = {};
  for (auto& b : banks_) b.nisWindow.clear();
  rScale_ = 1.0;
  ewmaNis_ = 2.0;
  activeIdx_ = 0;
  activeModel_ = banks_[0].model;
  publishGauges();
}

void Tracker::resetBanks(geom::Vec2 position, geom::Vec2 velocity) {
  for (auto& b : banks_) {
    const size_t n = stateDim(b.model);
    std::vector<double> x0(n, 0.0);
    std::vector<double> sd(n, 0.0);
    x0[0] = position.x;
    x0[1] = position.y;
    x0[2] = velocity.x;
    x0[3] = velocity.y;
    sd[0] = sd[1] = kInitPosStdM;
    sd[2] = sd[3] = kInitVelStdMps;
    if (n > 4) sd[4] = kInitTurnRateStd;
    b.filter->reset(x0, sd);
    b.filter->setProcessNoiseScale(1.0);
    b.nisWindow.clear();
  }
  rScale_ = 1.0;
  ewmaNis_ = 2.0;
  activeIdx_ = 0;
  activeModel_ = banks_[0].model;
}

void Tracker::initializeAt(const TrackMeasurement& m, bool isReinit) {
  resetBanks(m.position, {0.0, 0.0});
  state_ = TrackState::kTentative;
  hits_ = 1;
  filterTimeS_ = m.timeS;
  lastAcceptS_ = m.timeS;
  if (isReinit) {
    ++stats_.reinits;
    obs::add(obs_.reinits);
  }
  everInitialized_ = true;
  last_ = makeEstimate(m.timeS, 0.0, true);
  publishGauges();
}

void Tracker::seedFrom(double timeS, geom::Vec2 position,
                       geom::Vec2 velocity) {
  resetBanks(position, velocity);
  state_ = TrackState::kConfirmed;
  hits_ = config_.confirmHits;
  everInitialized_ = true;
  filterTimeS_ = timeS;
  lastAcceptS_ = timeS;
  last_ = makeEstimate(timeS, 0.0, false);
  publishGauges();
}

void Tracker::dropTrack() {
  if (state_ != TrackState::kDropped) {
    ++stats_.drops;
    obs::add(obs_.drops);
  }
  state_ = TrackState::kDropped;
  hits_ = 0;
  publishGauges();
}

void Tracker::coastTo(double timeS) {
  const double dt = timeS - filterTimeS_;
  if (dt > 0.0) {
    for (auto& b : banks_) b.filter->predict(dt);
    filterTimeS_ = timeS;
  }
  const double sinceAccept = timeS - lastAcceptS_;
  const double budget = state_ == TrackState::kTentative
                            ? kTentativeMaxCoastS
                            : config_.maxCoastS;
  if (sinceAccept > budget) {
    dropTrack();
    return;
  }
  if (state_ == TrackState::kConfirmed) state_ = TrackState::kCoasting;
}

TrackEstimate Tracker::makeEstimate(double timeS, double nis, bool used) {
  TrackEstimate e;
  e.timeS = timeS;
  if (state_ != TrackState::kDropped) {
    const auto& f = *active().filter;
    e.position = f.position();
    e.velocity = f.velocity();
    e.covariance = f.positionCovariance();
  }
  e.state = state_;
  e.model = activeModel_;
  e.nis = nis;
  e.usedMeasurement = used;
  recordHistory(e);
  return e;
}

void Tracker::evictHistoryFront() {
  history_.pop_front();
  ++stats_.historyEvicted;
  if (config_.historyArena) config_.historyArena->release(sizeof(TrackEstimate));
}

void Tracker::recordHistory(const TrackEstimate& estimate) {
  // The anchor is pinned outside the deque, so eviction can shed every
  // fix-backed entry and a coasting track still knows where its last
  // measurement put it.
  if (estimate.usedMeasurement) {
    anchor_ = estimate;
    hasAnchor_ = true;
  }
  if (config_.historyLimit == 0) return;
  while (history_.size() >= config_.historyLimit) evictHistoryFront();
  if (config_.historyArena) {
    // Under arena pressure shed oldest-first before refusing: the history
    // is diagnostics, and the freshest samples are the valuable ones.
    bool granted = config_.historyArena->tryReserve(sizeof(TrackEstimate));
    while (!granted && !history_.empty()) {
      evictHistoryFront();
      granted = config_.historyArena->tryReserve(sizeof(TrackEstimate));
    }
    if (!granted) {
      ++stats_.historyRefused;
      return;
    }
  }
  history_.push_back(estimate);
}

void Tracker::releaseHistory() {
  if (config_.historyArena && !history_.empty()) {
    config_.historyArena->release(uint64_t(history_.size()) *
                                  sizeof(TrackEstimate));
  }
  history_.clear();
}

void Tracker::maybeSwitchModel() {
  const size_t window = static_cast<size_t>(std::max(config_.nisWindow, 1));
  const Bank& cur = active();
  if (cur.nisWindow.size() < window) return;
  size_t best = activeIdx_;
  double bestNis = cur.windowedNis();
  for (size_t i = 0; i < banks_.size(); ++i) {
    if (i == activeIdx_) continue;
    if (banks_[i].nisWindow.size() < window) continue;
    const double nis = banks_[i].windowedNis();
    if (nis * config_.modelSwitchMargin < bestNis) {
      best = i;
      bestNis = nis;
    }
  }
  if (best != activeIdx_) {
    activeIdx_ = best;
    activeModel_ = banks_[best].model;
    ++stats_.modelSwitches;
    obs::add(obs_.modelSwitches);
  }
}

void Tracker::publishGauges() {
  obs::set(obs_.coastFraction, stats_.coastFraction());
  obs::set(obs_.state, static_cast<double>(static_cast<int>(state_)));
  obs::set(obs_.model, static_cast<double>(static_cast<int>(activeModel_)));
}

TrackEstimate Tracker::onGap(double timeS) {
  if (state_ == TrackState::kDropped || timeS < filterTimeS_) {
    last_.timeS = timeS;
    last_.usedMeasurement = false;
    return last_;
  }
  coastTo(timeS);
  ++stats_.coasts;
  obs::add(obs_.coasts);
  publishGauges();
  last_ = makeEstimate(timeS, 0.0, false);
  return last_;
}

TrackEstimate Tracker::onMeasurement(const TrackMeasurement& m) {
  // Out-of-order fixes (time running backwards) are ignored outright --
  // the filters cannot predict backwards.
  if (state_ != TrackState::kDropped && m.timeS < filterTimeS_) {
    return last_;
  }

  // Quarantined fixes never touch the track; the window still has to be
  // accounted for, so the track coasts across it.
  if (m.verdict == MeasurementVerdict::kQuarantine) {
    ++stats_.verdictRejects;
    obs::add(obs_.verdictRejects);
    if (state_ == TrackState::kDropped) {
      last_.timeS = m.timeS;
      last_.usedMeasurement = false;
      return last_;
    }
    return onGap(m.timeS);
  }

  if (state_ == TrackState::kDropped) {
    initializeAt(m, /*isReinit=*/everInitialized_);
    ++stats_.accepted;
    obs::add(obs_.accepted);
    publishGauges();
    return last_;
  }

  // Time update to the fix instant.
  const double dt = m.timeS - filterTimeS_;
  if (dt > 0.0) {
    for (auto& b : banks_) b.filter->predict(dt);
    filterTimeS_ = m.timeS;
  }

  // Suspect fixes are usable but less trustworthy: widen R instead of
  // discarding the information.  The locator confidence is a relative
  // quality score, not a calibrated probability -- the ellipse already
  // carries the calibrated uncertainty -- so only scores below the
  // kLowConfidence floor widen R further.
  Cov2 r = m.covariance;
  double scale = 1.0;
  if (m.verdict == MeasurementVerdict::kSuspect) scale *= kSuspectInflation;
  if (m.confidence > 0.0 && m.confidence < kLowConfidence) {
    scale *= kLowConfidence / std::max(m.confidence, 0.01);
  }
  r.xx *= scale;
  r.xy *= scale;
  r.yy *= scale;

  // Mahalanobis gate on the active bank's predicted state, against the
  // UNcalibrated covariance: the gate is an outlier test, and testing
  // with the wide as-reported R keeps a tight innovation calibration from
  // ever rejecting honest fixes (a rejected fix cannot re-widen the
  // calibration, so gating on the calibrated R can spiral).
  const double gateNis = active().filter->gateNis(
      m.position, rScale_ < 1.0 ? r : scaled(r, rScale_));
  if (!(gateNis <= gateThreshold_)) {
    ++stats_.gateRejects;
    obs::add(obs_.gateRejects);
    // The rejected window behaves like a gap: coast, maybe drop.
    const double sinceAccept = m.timeS - lastAcceptS_;
    const double budget = state_ == TrackState::kTentative
                              ? kTentativeMaxCoastS
                              : config_.maxCoastS;
    if (sinceAccept > budget) {
      dropTrack();
      last_ = makeEstimate(m.timeS, 0.0, false);
      return last_;
    }
    if (state_ == TrackState::kConfirmed) state_ = TrackState::kCoasting;
    ++stats_.coasts;
    obs::add(obs_.coasts);
    publishGauges();
    last_ = makeEstimate(m.timeS, 0.0, false);
    return last_;
  }

  // Accepted: update every bank (with the innovation-calibrated R) so the
  // inactive model's NIS history stays comparable, then revisit the model
  // choice.
  r = scaled(r, rScale_);
  double activeNis = 0.0;
  const size_t window = static_cast<size_t>(std::max(config_.nisWindow, 1));
  for (size_t i = 0; i < banks_.size(); ++i) {
    const double nis = banks_[i].filter->update(m.position, r);
    banks_[i].nisWindow.push_back(nis);
    while (banks_[i].nisWindow.size() > window) {
      banks_[i].nisWindow.pop_front();
    }
    if (i == activeIdx_) activeNis = nis;
  }
  maybeSwitchModel();

  // Innovation-based R calibration: drive the accepted-fix NIS EWMA
  // toward its chi-square(2) expectation with a slow multiplicative
  // feedback on the R scale.  NIS below 2 means R (as scaled) is too wide
  // -> shrink; above 2 -> widen.  The per-step factor is clamped so one
  // outlier cannot yank the calibration.
  if (config_.rCalibrationRate > 0.0) {
    const double a = std::clamp(config_.rCalibrationRate, 0.0, 1.0);
    ewmaNis_ = (1.0 - a) * ewmaNis_ + a * activeNis;
    const double target = std::max(config_.rCalibrationTargetNis, 0.1);
    rScale_ *= std::clamp(std::pow(ewmaNis_ / target, a), 0.8, 1.25);
    rScale_ = std::clamp(rScale_, kRScaleMin, kRScaleMax);
  }

  // Maneuver detection: a windowed NIS above target means the motion
  // model is under-shooting the dynamics -- open up Q proportionally so
  // the next predicts track the maneuver instead of lagging it.
  if (config_.adaptiveQMax > 1.0) {
    const double scale = std::clamp(active().windowedNis() / kAdaptiveQNis,
                                    1.0, config_.adaptiveQMax);
    for (auto& b : banks_) b.filter->setProcessNoiseScale(scale);
  }

  lastAcceptS_ = m.timeS;
  ++hits_;
  ++stats_.accepted;
  obs::add(obs_.accepted);
  obs::observe(obs_.nis, activeNis);
  if (state_ == TrackState::kTentative && hits_ >= config_.confirmHits) {
    state_ = TrackState::kConfirmed;
  } else if (state_ == TrackState::kCoasting) {
    state_ = TrackState::kConfirmed;
  }
  publishGauges();
  last_ = makeEstimate(m.timeS, activeNis, true);
  return last_;
}

}  // namespace tagspin::track
