// TagspinSystem -- the central localization server (paper section II).
//
// Owns the registry of deployed spinning tags (EPC -> rig geometry), the
// per-tag-model orientation models obtained from the calibration prelude,
// and turns raw LLRP report streams into reader-antenna fixes.
//
// Typical use:
//
//   TagspinSystem server;
//   server.registerRig(epc1, rig1);
//   server.registerRig(epc2, rig2);
//   server.setOrientationModel(epc1, model);      // optional but recommended
//   auto fix = server.tryLocate2D(reports);       // reports: one antenna
//   if (fix) use(fix->fix.position, fix->report.confidence);
//   else     log(errorCodeName(fix.code()), fix.error().message);
//
#pragma once

#include <map>
#include <optional>

#include "core/locator.hpp"
#include "core/preprocess.hpp"
#include "rfid/report.hpp"

namespace tagspin::core {

class TagspinSystem {
 public:
  explicit TagspinSystem(LocatorConfig config = {});

  /// Register a horizontally spinning tag.  Re-registering an EPC replaces
  /// its rig spec.
  void registerRig(const rfid::Epc& epc, const RigSpec& rig);

  /// Register a vertically spinning tag (x-z rotation plane); used only for
  /// +-z disambiguation in tryLocate3D, never for the planar fix.
  void registerVerticalRig(const rfid::Epc& epc, const RigSpec& rig);

  /// Install the orientation model of a specific tag (from its calibration
  /// prelude).  Rigs without a model use the identity (no correction).
  void setOrientationModel(const rfid::Epc& epc, OrientationModel model);
  void setPreprocessConfig(const PreprocessConfig& config);

  size_t rigCount() const { return rigs_.size(); }
  const Locator& locator() const { return locator_; }

  /// Run the orientation-calibration prelude (section III-B Step 1) from a
  /// center-spin trace: the tag sits at the center of `rig` and the reader
  /// is at the surveyed position `knownReaderPos`.
  OrientationModel calibrateOrientation(const rfid::ReportStream& reports,
                                        const rfid::Epc& epc,
                                        const RigSpec& rig,
                                        const geom::Vec3& knownReaderPos,
                                        size_t order = 4) const;

  /// Locate the reader antenna that produced `reports`, the one way a report
  /// stream becomes a fix.  Reports must come from a single antenna port
  /// (split a multi-port stream with rfid::filterByAntenna first).  Every
  /// registered horizontal rig heard in the stream is offered to
  /// Locator::tryLocate2D/3D: snapshots come through the robust preprocess
  /// stages (collectObservationsRobust), rigs below the health thresholds
  /// are dropped with a 2-rig fallback, and every failure comes back as an
  /// ErrorCode (kTooFewRigs when fewer than two rigs were heard) instead of
  /// an exception.  The fix equals
  /// locator().tryLocate2D/3D(collectObservationsRobust(reports),
  /// healthThresholds()), up to the z choice below.
  ///
  /// When the 3D fix keeps a mirror candidate (ZResolution::kBoth), the
  /// first registered vertical rig heard picks the sign of z through
  /// Locator::disambiguateZ; a vertical rig whose profile cannot be built
  /// is passed over.
  Result<ResilientFix2D> tryLocate2D(const rfid::ReportStream& reports) const;
  Result<ResilientFix3D> tryLocate3D(const rfid::ReportStream& reports) const;

  /// Health thresholds used by tryLocate2D/3D.
  void setHealthThresholds(const RigHealthThresholds& thresholds);
  const RigHealthThresholds& healthThresholds() const {
    return healthThresholds_;
  }

  /// Wire (or unwire, with null) telemetry: forwards to the locator and
  /// publishes the robust preprocess repairs (preprocess.* counters,
  /// span.preprocess) from collectObservationsRobust.
  void setMetrics(obs::MetricsRegistry* registry);

  /// The per-rig observations tryLocate2D/3D offer the locator: every
  /// registered horizontal rig with at least two snapshots left by the
  /// robust preprocess stages (never throws).
  std::vector<RigObservation> collectObservationsRobust(
      const rfid::ReportStream& reports) const;

 private:
  struct Instruments {
    obs::Counter* nonFiniteDropped = nullptr;
    obs::Counter* duplicatesRemoved = nullptr;
    obs::Counter* timestampRepairs = nullptr;
    obs::Counter* phaseOutliersDropped = nullptr;
    obs::Histogram* preprocessSpan = nullptr;  // span.preprocess
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  /// One rig's snapshots through the robust preprocess stages, counted
  /// under preprocess.* and span.preprocess; nullopt when fewer than two
  /// survive.
  std::optional<RigObservation> observe(const rfid::ReportStream& reports,
                                        const rfid::Epc& epc,
                                        const RigSpec& rig) const;
  /// collectObservationsRobust, or kTooFewRigs (naming `entry`) when fewer
  /// than two rigs were heard: the step tryLocate2D/3D share.
  Result<std::vector<RigObservation>> heardRigs(
      const rfid::ReportStream& reports, const char* entry) const;

  Locator locator_;
  PreprocessConfig preprocess_;
  RigHealthThresholds healthThresholds_;
  std::map<rfid::Epc, RigSpec> rigs_;
  std::map<rfid::Epc, RigSpec> verticalRigs_;
  std::map<rfid::Epc, OrientationModel> orientationModels_;
  Instruments obs_;
};

}  // namespace tagspin::core
