// Persistence for deployment state: rig registrations and fitted
// orientation models survive server restarts as human-readable text.
//
// Format: one "key = value" pair per line, '#' comments, sections started
// by "[type name]" headers.  Deliberately dependency-free and diff-able --
// deployment files live in version control.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/orientation_calibration.hpp"
#include "core/snapshot.hpp"
#include "rfid/epc.hpp"

namespace tagspin::core {

/// Everything the localization server needs to come back up: rigs keyed by
/// EPC, plus any fitted orientation models.
struct DeploymentFile {
  std::map<rfid::Epc, RigSpec> rigs;
  std::map<rfid::Epc, RigSpec> verticalRigs;
  std::map<rfid::Epc, OrientationModel> orientationModels;
};

/// Serialize / parse the deployment.  Parsing throws std::invalid_argument
/// with a line number on malformed input.
void writeDeployment(std::ostream& out, const DeploymentFile& deployment);
DeploymentFile readDeployment(std::istream& in);

/// Convenience: (de)serialize through strings.
std::string deploymentToString(const DeploymentFile& deployment);
DeploymentFile deploymentFromString(std::string_view text);

/// Orientation models alone (the prelude's output artifact).
void writeOrientationModel(std::ostream& out, const OrientationModel& model);
OrientationModel readOrientationModel(std::istream& in);

/// Per-tag calibration progress as checkpointed by the session runtime:
/// the snapshots accumulated so far (a spin interrupted mid-revolution
/// resumes from exactly these), the fitted Fourier orientation model when
/// one exists, and an optional partial angle spectrum (dense azimuth
/// samples of the rig's power profile at checkpoint time -- a warm-start
/// and post-mortem artifact).
struct TagCalibrationProgress {
  std::vector<Snapshot> snapshots;
  bool hasOrientationModel = false;
  OrientationModel orientationModel;
  std::vector<double> angleSpectrum;
};

/// The most recent successful fix, persisted so an operator (or the
/// restarted runtime) can see where the reader was last placed -- position,
/// confidence, and the robust-estimation summary including the bootstrap
/// confidence ellipse when one was computed.
struct FixRecord {
  bool valid = false;
  double x = 0.0;
  double y = 0.0;
  double confidence = 0.0;
  double inlierFraction = 1.0;
  uint64_t quarantinedSpins = 0;
  bool hasEllipse = false;
  double ellipseSemiMajorM = 0.0;
  double ellipseSemiMinorM = 0.0;
  double ellipseOrientationRad = 0.0;
  double ellipseConfidence = 0.0;
  /// Tracking continuation (written when a tracker was live at checkpoint
  /// time).  Old checkpoints simply omit these keys and load with the
  /// defaults -- the restarted tracker re-initializes from the next fix.
  bool hasVelocity = false;
  double velocityX = 0.0;  // m/s
  double velocityY = 0.0;
  bool hasTrack = false;
  double trackTimeS = 0.0;   // estimate timestamp (reader clock)
  uint32_t trackState = 0;   // numeric track::TrackState
  uint32_t trackModel = 0;   // numeric track::MotionModelId
};

/// Everything the supervised runtime persists between crashes.  The
/// sequence number increases with every save, so a stale file is
/// recognizable; lastReportTimestampS is the reader-clock high watermark
/// of the ingested stream.
struct CalibrationCheckpoint {
  uint64_t sequence = 0;
  double wallTimeS = 0.0;
  double lastReportTimestampS = 0.0;
  FixRecord lastFix;
  std::map<rfid::Epc, TagCalibrationProgress> tags;
};

/// Serialize / parse a checkpoint in the same text dialect as deployment
/// files.  Parsing throws std::invalid_argument with a line number on
/// malformed input (including a snapshot count that does not match its
/// declared snapshot_count -- a text-level truncation tell).  File-level
/// integrity (CRC, atomic replace) is layered on top by
/// runtime::CheckpointStore.
std::string checkpointToString(const CalibrationCheckpoint& ckpt);
/// checkpointToString's text appended to `text`, which it does not
/// reserve; checkpointSizeBound bounds the text's length (with room for
/// CheckpointStore::frame's header), so a caller that writes several
/// checkpoints into one buffer can size it once.
void appendCheckpoint(std::string& text, const CalibrationCheckpoint& ckpt);
size_t checkpointSizeBound(const CalibrationCheckpoint& ckpt);
CalibrationCheckpoint checkpointFromString(std::string_view text);

}  // namespace tagspin::core
