#include "runtime/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "geom/angles.hpp"
#include "obs/span.hpp"
#include "rf/constants.hpp"
#include "track/fix_adapter.hpp"

namespace tagspin::runtime {

namespace {

/// Dedup key: timestamp quantised to the wire's microsecond resolution,
/// phase to its 1/4096-turn resolution, plus the channel -- the same triple
/// the robust preprocess uses to recognise reader retransmits.
uint64_t dedupKey(const rfid::TagReport& r) {
  const uint64_t us = static_cast<uint64_t>(std::llround(r.timestampS * 1e6));
  const uint64_t phaseQ = static_cast<uint64_t>(std::llround(
                              geom::wrapTwoPi(r.phaseRad) / (2.0 * geom::kPi) *
                              4096.0)) &
                          0xFFFu;
  return (us << 20) ^ (phaseQ << 8) ^
         static_cast<uint64_t>(static_cast<uint32_t>(r.channelIndex));
}

core::Snapshot toSnapshot(const rfid::TagReport& r) {
  core::Snapshot s;
  s.timeS = r.timestampS;
  s.phaseRad = geom::wrapTwoPi(r.phaseRad);
  s.lambdaM = rf::wavelength(r.frequencyHz);
  s.channel = r.channelIndex;
  s.rssiDbm = r.rssiDbm;
  return s;
}

}  // namespace

Supervisor::Instruments Supervisor::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.reportsSeen = registry->counter("supervisor.reports_seen");
  in.reportsIngested = registry->counter("supervisor.reports_ingested");
  in.duplicatesSuppressed =
      registry->counter("supervisor.duplicates_suppressed");
  in.unknownEpcDropped = registry->counter("supervisor.unknown_epc_dropped");
  in.weakRssiDropped = registry->counter("supervisor.weak_rssi_dropped");
  in.invalidDropped = registry->counter("supervisor.invalid_dropped");
  in.decimationsApplied = registry->counter("supervisor.decimations_applied");
  in.sessionsRestarted = registry->counter("supervisor.sessions_restarted");
  in.checkpointSaves = registry->counter("checkpoint.saves");
  in.checkpointFailures = registry->counter("checkpoint.failures");
  in.checkpointBytes = registry->counter("checkpoint.bytes_written");
  in.respinsRequested = registry->counter("robust.respins_requested");
  in.phaseOutliersDropped =
      registry->counter("preprocess.phase_outliers_dropped");
  in.checkpointSpan = registry->histogram("span.checkpoint_write");
  in.preprocessSpan = registry->histogram("span.preprocess");
  return in;
}

Supervisor::Supervisor(SupervisorConfig config,
                       core::DeploymentFile deployment, CheckpointStore* store)
    : config_(std::move(config)),
      deployment_(std::move(deployment)),
      store_(store),
      locator_(config_.locator) {
  models_ = deployment_.orientationModels;
  // Propagate the supervisor-level sinks down the tree unless the caller
  // wired the sessions separately.
  if (config_.metrics && !config_.session.metrics) {
    config_.session.metrics = config_.metrics;
  }
  if (config_.journal && !config_.session.journal) {
    config_.session.journal = config_.journal;
  }
  if (store_ && config_.journal) store_->setJournal(config_.journal);
  obs_ = Instruments::resolve(config_.metrics);
  locator_.setMetrics(config_.metrics);
  if (config_.trackFixes) {
    tracker_ = std::make_unique<track::Tracker>();
    tracker_->setMetrics(config_.metrics);
  }
}

void Supervisor::addSession(std::string name, TransportFactory factory) {
  Slot slot;
  slot.name = std::move(name);
  slot.factory = std::move(factory);
  slot.session = std::make_unique<ReaderSession>(slot.name, slot.factory(),
                                                 config_.session);
  slots_.push_back(std::move(slot));
}

core::Result<core::CalibrationCheckpoint> Supervisor::restore() {
  using R = core::Result<core::CalibrationCheckpoint>;
  if (!store_) {
    return R::fail(core::ErrorCode::kCheckpointMissing,
                   "supervisor: no checkpoint store configured");
  }
  core::Result<core::CalibrationCheckpoint> loaded = store_->load();
  if (!loaded) return loaded;
  restoreFrom(*loaded);
  return loaded;
}

void Supervisor::restoreFrom(const core::CalibrationCheckpoint& ckpt) {
  for (const auto& [epc, progress] : ckpt.tags) {
    TagState& tag = tags_[epc];
    tag.snapshots = progress.snapshots;
    tag.seen.clear();
    for (const core::Snapshot& s : tag.snapshots) {
      rfid::TagReport r;
      r.timestampS = s.timeS;
      r.phaseRad = s.phaseRad;
      r.channelIndex = s.channel;
      tag.seen.insert(dedupKey(r));
    }
    if (progress.hasOrientationModel) {
      models_[epc] = progress.orientationModel;
    }
  }
  checkpointSequence_ = ckpt.sequence;
  lastFix_ = ckpt.lastFix;
  lastReaderTimestampS_ =
      std::max(lastReaderTimestampS_, ckpt.lastReportTimestampS);
  // Re-seed the tracker from the checkpointed track state so a restart
  // resumes the trajectory instead of re-initializing from scratch.
  if (tracker_ && ckpt.lastFix.valid && ckpt.lastFix.hasTrack &&
      ckpt.lastFix.hasVelocity) {
    tracker_->seedFrom(ckpt.lastFix.trackTimeS,
                       {ckpt.lastFix.x, ckpt.lastFix.y},
                       {ckpt.lastFix.velocityX, ckpt.lastFix.velocityY});
  }
}

void Supervisor::tick(double nowS) {
  for (Slot& slot : slots_) {
    if (slot.session->state() == SessionState::kFailed) {
      // Circuit tripped: replace the session wholesale.  A fresh breaker
      // and backoff schedule give the reader a clean slate; the per-tag
      // state below is untouched, so no calibration progress is lost.
      slot.session = std::make_unique<ReaderSession>(
          slot.name, slot.factory(), config_.session);
      ++stats_.sessionsRestarted;
      obs::add(obs_.sessionsRestarted);
      obs::record(config_.journal, nowS, obs::Severity::kWarn,
                  "failed session replaced", {{"session", slot.name}});
    }
    slot.session->tick(nowS);
    drainScratch_.clear();
    slot.session->drainInto(drainScratch_);
    for (const rfid::TagReport& r : drainScratch_) ingest(r);
  }

  if (store_ && config_.checkpointIntervalS > 0.0 &&
      (stats_.lastCheckpointWallS < 0.0 ||
       nowS - stats_.lastCheckpointWallS >= config_.checkpointIntervalS)) {
    saveCheckpoint(nowS);
    stats_.lastCheckpointWallS = nowS;
  }
}

void Supervisor::saveCheckpoint(double nowS) {
  try {
    size_t bytes = 0;
    {
      TAGSPIN_SPAN(obs_.checkpointSpan);
      bytes = store_->save(makeCheckpoint(nowS));
    }
    ++stats_.checkpointsSaved;
    obs::add(obs_.checkpointSaves);
    obs::add(obs_.checkpointBytes, bytes);
  } catch (const std::exception& e) {
    ++stats_.checkpointFailures;  // disk trouble must not kill ingestion
    obs::add(obs_.checkpointFailures);
    obs::record(config_.journal, nowS, obs::Severity::kError,
                "checkpoint save failed", {{"error", e.what()}});
  }
}

void Supervisor::shutdown(double nowS) {
  for (Slot& slot : slots_) {
    slot.session->requestStop();
    slot.session->tick(nowS);
    drainScratch_.clear();
    slot.session->drainInto(drainScratch_);
    for (const rfid::TagReport& r : drainScratch_) ingest(r);
  }
  if (store_) saveCheckpoint(nowS);
}

void Supervisor::ingest(const rfid::TagReport& report) {
  ++stats_.reportsSeen;
  obs::add(obs_.reportsSeen);
  if (report.rssiDbm < core::kMinRssiDbm) {
    ++stats_.weakRssiDropped;
    obs::add(obs_.weakRssiDropped);
    return;
  }
  // A NaN time or phase would poison the tag's spectrum, and a frequency
  // <= 0 would become an infinite wavelength.
  if (!std::isfinite(report.timestampS) || !std::isfinite(report.phaseRad) ||
      !std::isfinite(report.frequencyHz) || report.frequencyHz <= 0.0) {
    ++stats_.invalidDropped;
    obs::add(obs_.invalidDropped);
    return;
  }
  if (findRig(report.epc) == nullptr) {
    ++stats_.unknownEpcDropped;  // mis-read EPCs must not grow memory
    obs::add(obs_.unknownEpcDropped);
    return;
  }
  TagState& tag = tags_[report.epc];
  const uint64_t key = dedupKey(report);
  if (tag.seen.count(key) > 0) {
    ++stats_.duplicatesSuppressed;
    obs::add(obs_.duplicatesSuppressed);
    return;
  }
  if (tag.acceptStride > 1 && tag.offerCounter++ % tag.acceptStride != 0) {
    return;  // decimated admission after an earlier overflow
  }
  tag.seen.insert(key);
  tag.snapshots.push_back(toSnapshot(report));
  ++stats_.reportsIngested;
  obs::add(obs_.reportsIngested);
  lastReaderTimestampS_ = std::max(lastReaderTimestampS_, report.timestampS);

  if (tag.snapshots.size() >= config_.maxSnapshotsPerTag) decimate(tag);
}

void Supervisor::decimate(TagState& tag) {
  std::vector<core::Snapshot> kept;
  kept.reserve(tag.snapshots.size() / 2 + 1);
  for (size_t i = 0; i < tag.snapshots.size(); i += 2) {
    kept.push_back(tag.snapshots[i]);
  }
  tag.snapshots = std::move(kept);
  tag.acceptStride *= 2;
  ++stats_.decimationsApplied;
  obs::add(obs_.decimationsApplied);
}

const core::RigSpec* Supervisor::findRig(const rfid::Epc& epc) const {
  auto it = deployment_.rigs.find(epc);
  if (it != deployment_.rigs.end()) return &it->second;
  it = deployment_.verticalRigs.find(epc);
  if (it != deployment_.verticalRigs.end()) return &it->second;
  return nullptr;
}

std::vector<core::RigObservation> Supervisor::buildObservations(
    std::vector<rfid::Epc>* epcsOut) const {
  std::vector<core::RigObservation> observations;
  if (epcsOut) epcsOut->clear();
  for (const auto& [epc, rig] : deployment_.rigs) {
    const auto it = tags_.find(epc);
    if (it == tags_.end() || it->second.snapshots.empty()) continue;
    core::RigObservation obs;
    obs.rig = rig;
    obs.snapshots = it->second.snapshots;
    std::sort(obs.snapshots.begin(), obs.snapshots.end(),
              [](const core::Snapshot& a, const core::Snapshot& b) {
                return a.timeS < b.timeS;
              });
    {
      TAGSPIN_SPAN(obs_.preprocessSpan);
      size_t dropped = 0;
      obs.snapshots = core::hampelFilterPhases(obs.snapshots, &dropped);
      obs::add(obs_.phaseOutliersDropped, dropped);
    }
    const auto model = models_.find(epc);
    if (model != models_.end()) obs.orientation = model->second;
    observations.push_back(std::move(obs));
    if (epcsOut) epcsOut->push_back(epc);
  }
  return observations;
}

core::Result<core::ResilientFix2D> Supervisor::tryLocate2D() const {
  return locator_.tryLocate2D(buildObservations());
}

void Supervisor::requestRespin(const rfid::Epc& epc, double nowS) {
  const auto it = tags_.find(epc);
  if (it == tags_.end()) return;
  TagState& tag = it->second;
  tag.snapshots.clear();
  tag.seen.clear();
  tag.acceptStride = 1;
  tag.offerCounter = 0;
  ++stats_.respinsRequested;
  obs::add(obs_.respinsRequested);
  obs::record(config_.journal, nowS, obs::Severity::kWarn,
              "quarantined spin discarded; re-spin requested",
              {{"epc", epc.toHex()}});
}

uint64_t Supervisor::memoryFootprintBytes() const {
  uint64_t bytes = uint64_t(slots_.size()) *
                   uint64_t(config_.session.queueCapacity) *
                   sizeof(rfid::TagReport);
  for (const auto& [epc, tag] : tags_) {
    bytes += uint64_t(tag.snapshots.capacity()) * sizeof(core::Snapshot);
    // unordered_set node: the key plus roughly one pointer of bucket/next
    // overhead per element.
    bytes += uint64_t(tag.seen.size()) * (sizeof(uint64_t) + sizeof(void*));
  }
  bytes += uint64_t(drainScratch_.capacity()) * sizeof(rfid::TagReport);
  if (tracker_) bytes += tracker_->memoryBytes();
  return bytes;
}

uint64_t Supervisor::trimMemory() {
  const uint64_t before = memoryFootprintBytes();
  for (auto& [epc, tag] : tags_) {
    if (tag.snapshots.size() >= 8) decimate(tag);
  }
  drainScratch_.clear();
  drainScratch_.shrink_to_fit();
  const uint64_t after = memoryFootprintBytes();
  return before > after ? before - after : 0;
}

core::Result<core::ResilientFix2D> Supervisor::locateAndRecover2D(
    double nowS) {
  std::vector<rfid::Epc> epcs;
  const std::vector<core::RigObservation> observations =
      buildObservations(&epcs);
  core::Result<core::ResilientFix2D> result =
      locator_.tryLocate2D(observations);
  if (!result) {
    // A failed attempt is a drop-out window: the track coasts across it
    // on the motion model instead of freezing at the last fix.
    if (tracker_ && tracker_->hasEstimate()) tracker_->onGap(nowS);
    return result;
  }

  // Quarantined rigs have already been excluded from (or down-weighted in)
  // the fix; here we act on the verdict by discarding their accumulated
  // snapshots so the live stream rebuilds the spin from scratch.  The
  // degraded fix still goes out -- recovery must never turn a usable
  // answer into a failure.
  uint64_t quarantined = 0;
  const std::vector<core::RigHealth>& health = result->report.rigHealth;
  for (size_t i = 0; i < health.size() && i < epcs.size(); ++i) {
    if (health[i].spin.verdict == robust::SpinVerdict::kQuarantine) {
      ++quarantined;
      requestRespin(epcs[i], nowS);
    }
  }
  stats_.quarantinedSpins += quarantined;

  core::FixRecord record;
  record.valid = true;
  record.x = result->fix.position.x;
  record.y = result->fix.position.y;
  record.confidence = result->report.confidence;
  record.inlierFraction = result->fix.estimation.inlierFraction;
  record.quarantinedSpins = quarantined;
  if (result->fix.estimation.ellipse) {
    const robust::ConfidenceEllipse& e = *result->fix.estimation.ellipse;
    record.hasEllipse = true;
    record.ellipseSemiMajorM = e.semiMajorM;
    record.ellipseSemiMinorM = e.semiMinorM;
    record.ellipseOrientationRad = e.orientationRad;
    record.ellipseConfidence = e.confidenceLevel;
  }
  if (tracker_) {
    tracker_->onMeasurement(track::toMeasurement(*result, nowS));
    if (tracker_->hasEstimate()) {
      const track::TrackEstimate& est = tracker_->lastEstimate();
      record.hasVelocity = true;
      record.velocityX = est.velocity.x;
      record.velocityY = est.velocity.y;
      record.hasTrack = true;
      record.trackTimeS = est.timeS;
      record.trackState = static_cast<uint32_t>(est.state);
      record.trackModel = static_cast<uint32_t>(est.model);
    }
  }
  lastFix_ = record;
  return result;
}

core::CalibrationCheckpoint Supervisor::makeCheckpoint(double nowS) const {
  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = checkpointSequence_ + stats_.checkpointsSaved + 1;
  ckpt.wallTimeS = nowS;
  ckpt.lastReportTimestampS = lastReaderTimestampS_;
  ckpt.lastFix = lastFix_;
  for (const auto& [epc, tag] : tags_) {
    if (tag.snapshots.empty()) continue;
    core::TagCalibrationProgress progress;
    progress.snapshots = tag.snapshots;
    std::sort(progress.snapshots.begin(), progress.snapshots.end(),
              [](const core::Snapshot& a, const core::Snapshot& b) {
                return a.timeS < b.timeS;
              });
    const auto model = models_.find(epc);
    if (model != models_.end() && !model->second.isIdentity()) {
      progress.hasOrientationModel = true;
      progress.orientationModel = model->second;
    }
    if (config_.checkpointSpectrumPoints > 0 &&
        progress.snapshots.size() >= 8) {
      if (const core::RigSpec* rig = findRig(epc)) {
        const core::PowerProfile profile(progress.snapshots, rig->kinematics,
                                         config_.locator.profile);
        progress.angleSpectrum =
            profile.sampleAzimuth(config_.checkpointSpectrumPoints);
      }
    }
    ckpt.tags[epc] = std::move(progress);
  }
  return ckpt;
}

void Supervisor::setOrientationModel(const rfid::Epc& epc,
                                     core::OrientationModel m) {
  models_[epc] = std::move(m);
}

size_t Supervisor::tagSnapshotCount(const rfid::Epc& epc) const {
  const auto it = tags_.find(epc);
  return it == tags_.end() ? 0 : it->second.snapshots.size();
}

}  // namespace tagspin::runtime
