#include "core/tagspin.hpp"

#include <stdexcept>

#include "geom/angles.hpp"
#include "obs/span.hpp"

namespace tagspin::core {

TagspinSystem::TagspinSystem(LocatorConfig config)
    : locator_(config) {}

TagspinSystem::Instruments TagspinSystem::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.nonFiniteDropped = registry->counter("preprocess.nonfinite_dropped");
  in.duplicatesRemoved = registry->counter("preprocess.duplicates_removed");
  in.timestampRepairs = registry->counter("preprocess.timestamp_repairs");
  in.phaseOutliersDropped =
      registry->counter("preprocess.phase_outliers_dropped");
  in.preprocessSpan = registry->histogram("span.preprocess");
  return in;
}

void TagspinSystem::setMetrics(obs::MetricsRegistry* registry) {
  obs_ = Instruments::resolve(registry);
  locator_.setMetrics(registry);
}

void TagspinSystem::registerRig(const rfid::Epc& epc, const RigSpec& rig) {
  rigs_[epc] = rig;
}

void TagspinSystem::registerVerticalRig(const rfid::Epc& epc,
                                        const RigSpec& rig) {
  verticalRigs_[epc] = rig;
}

void TagspinSystem::setOrientationModel(const rfid::Epc& epc,
                                        OrientationModel model) {
  orientationModels_[epc] = std::move(model);
}

void TagspinSystem::setPreprocessConfig(const PreprocessConfig& config) {
  preprocess_ = config;
}

OrientationModel TagspinSystem::calibrateOrientation(
    const rfid::ReportStream& reports, const rfid::Epc& epc,
    const RigSpec& rig, const geom::Vec3& knownReaderPos,
    size_t order) const {
  const std::vector<Snapshot> snaps =
      extractSnapshots(reports, epc, preprocess_);
  const double azimuth = geom::azimuthOf(rig.center, knownReaderPos);
  return OrientationModel::fit(snaps, rig.kinematics, azimuth, order);
}

std::optional<RigObservation> TagspinSystem::observe(
    const rfid::ReportStream& reports, const rfid::Epc& epc,
    const RigSpec& rig) const {
  RepairStats repairs;
  Result<std::vector<Snapshot>> snaps = [&] {
    TAGSPIN_SPAN(obs_.preprocessSpan);
    return extractSnapshotsRobust(reports, epc, preprocess_, &repairs);
  }();
  obs::add(obs_.nonFiniteDropped, repairs.nonFiniteDropped);
  obs::add(obs_.duplicatesRemoved, repairs.duplicatesRemoved);
  obs::add(obs_.timestampRepairs, repairs.timestampOutliersDropped);
  obs::add(obs_.phaseOutliersDropped, repairs.phaseOutliersDropped);
  // Not heard (or fully rejected), or too few snapshots for a profile.
  if (!snaps || snaps->size() < 2) return std::nullopt;
  RigObservation o;
  o.rig = rig;
  o.snapshots = std::move(*snaps);
  if (const auto it = orientationModels_.find(epc);
      it != orientationModels_.end()) {
    o.orientation = it->second;
  }
  return o;
}

std::vector<RigObservation> TagspinSystem::collectObservationsRobust(
    const rfid::ReportStream& reports) const {
  std::vector<RigObservation> obs;
  for (const auto& [epc, rig] : rigs_) {
    if (std::optional<RigObservation> o = observe(reports, epc, rig)) {
      obs.push_back(std::move(*o));
    }
  }
  return obs;
}

void TagspinSystem::setHealthThresholds(const RigHealthThresholds& thresholds) {
  healthThresholds_ = thresholds;
}

Result<std::vector<RigObservation>> TagspinSystem::heardRigs(
    const rfid::ReportStream& reports, const char* entry) const {
  std::vector<RigObservation> obs = collectObservationsRobust(reports);
  if (obs.size() < 2) {
    return Error{ErrorCode::kTooFewRigs,
                 std::string(entry) + ": " + std::to_string(obs.size()) +
                     " of " + std::to_string(rigs_.size()) +
                     " registered rigs heard in a stream of " +
                     std::to_string(reports.size()) + " reports"};
  }
  return obs;
}

Result<ResilientFix2D> TagspinSystem::tryLocate2D(
    const rfid::ReportStream& reports) const {
  const Result<std::vector<RigObservation>> obs =
      heardRigs(reports, "tryLocate2D");
  if (!obs) return obs.error();
  return locator_.tryLocate2D(*obs, healthThresholds_);
}

Result<ResilientFix3D> TagspinSystem::tryLocate3D(
    const rfid::ReportStream& reports) const {
  const Result<std::vector<RigObservation>> obs =
      heardRigs(reports, "tryLocate3D");
  if (!obs) return obs.error();
  Result<ResilientFix3D> out = locator_.tryLocate3D(*obs, healthThresholds_);
  if (!out || !out->fix.mirrorCandidate) return out;

  // Both z candidates are in play (ZResolution::kBoth): the first vertical
  // rig heard picks one (the paper's future-work extension).
  Fix3D& fix = out->fix;
  for (const auto& [epc, rig] : verticalRigs_) {
    const std::optional<RigObservation> vertical = observe(reports, epc, rig);
    if (!vertical) continue;
    try {
      fix.position =
          locator_.disambiguateZ(*vertical, fix.position, *fix.mirrorCandidate);
    } catch (const std::invalid_argument&) {
      continue;  // its profile cannot be built (e.g. radius <= 0)
    }
    fix.mirrorCandidate.reset();
    break;
  }
  return out;
}

}  // namespace tagspin::core
