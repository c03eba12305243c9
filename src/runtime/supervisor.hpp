// Supervisor: owns N ReaderSessions, accumulates their reports into
// per-tag calibration state, and keeps that state crash-safe.
//
// Responsibilities, mirroring an Erlang-style supervision tree flattened
// to one level:
//  * tick every session (each runs its own connect/stream/backoff state
//    machine with in-session watchdogs);
//  * replace sessions whose circuit breaker tripped (state FAILED) with a
//    fresh session on a fresh transport from the slot's factory -- the
//    calibration progress lives here, not in the session, so a restart
//    loses nothing;
//  * drain every session's ingest queue into the per-EPC snapshot
//    accumulators (dedup, RSSI floor, bounded by decimation -- a very long
//    soak thins old revolutions instead of growing without bound);
//  * periodically checkpoint the whole calibration state through a
//    CheckpointStore, so kill -9 + restore() resumes a spin mid-revolution;
//  * answer tryLocate2D from the accumulated state at any moment, with the
//    default rig-health thresholds and the Hampel phase filter.
//
// Like the rest of the runtime it is tick-driven and clock-free.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/locator.hpp"
#include "core/serialization.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/session.hpp"
#include "track/tracker.hpp"

namespace tagspin::runtime {

using TransportFactory = std::function<std::unique_ptr<Transport>()>;

struct SupervisorConfig {
  SessionConfig session;
  /// Seconds between periodic checkpoints (0 disables; save happens on the
  /// first tick at/after the deadline).
  double checkpointIntervalS = 2.0;
  /// Per-tag snapshot bound; on overflow the accumulator decimates 2x
  /// (drops every other stored snapshot and halves the future accept
  /// rate), preserving full-spin arc coverage at reduced density.  Reports
  /// weaker than core::kMinRssiDbm never enter the accumulators.
  size_t maxSnapshotsPerTag = 20000;
  /// Azimuth samples of the partial angle spectrum embedded in each
  /// checkpoint (0 disables; needs >= 8 snapshots on the tag).
  size_t checkpointSpectrumPoints = 72;
  core::LocatorConfig locator;

  /// Feed every fix from locateAndRecover2D through a track::Tracker at
  /// its default config (sequential Bayesian smoothing of the fix stream).
  /// Failed locate attempts become coast windows; the track state rides
  /// along in the checkpoint's [last_fix] section and is re-seeded on
  /// restore.
  bool trackFixes = false;

  /// Telemetry sinks for the whole supervision tree.  When set they are
  /// propagated into every session (unless `session.metrics`/`.journal`
  /// were already set explicitly) and into the locator, so one registry
  /// captures supervisor.*, session.*, queue.*, llrp.*, checkpoint.*,
  /// preprocess.*, locator.* and span.* in a single snapshot.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventJournal* journal = nullptr;
};

struct SupervisorStats {
  uint64_t reportsSeen = 0;          // offered to ingest()
  uint64_t reportsIngested = 0;      // accepted into per-tag state
  uint64_t duplicatesSuppressed = 0;
  uint64_t unknownEpcDropped = 0;    // EPC not in the deployment registry
  uint64_t weakRssiDropped = 0;
  /// No finite timestamp or phase, or no finite carrier frequency > 0.
  uint64_t invalidDropped = 0;
  uint64_t decimationsApplied = 0;   // 2x thinning events
  uint64_t sessionsRestarted = 0;    // FAILED sessions replaced
  uint64_t checkpointsSaved = 0;
  uint64_t checkpointFailures = 0;   // save threw (disk trouble); non-fatal
  uint64_t quarantinedSpins = 0;     // spins the self-diagnosis rejected
  uint64_t respinsRequested = 0;     // quarantined tags cleared for re-spin
  double lastCheckpointWallS = -1.0;
};

class Supervisor {
 public:
  /// `store` may be null (no persistence).  The deployment provides the
  /// rig registry and any prelude orientation models.
  Supervisor(SupervisorConfig config, core::DeploymentFile deployment,
             CheckpointStore* store = nullptr);

  /// Register a session slot.  The factory is invoked for the initial
  /// session and again for every supervisor-level restart, so it must
  /// yield a transport to the *same* reader (see SharedTransport).
  void addSession(std::string name, TransportFactory factory);

  /// Load the checkpoint from the store and merge it into the per-tag
  /// state (call before the first tick).  kCheckpointMissing is returned
  /// but is a normal fresh start; kCheckpointCorrupt means the file was
  /// rejected and the runtime starts empty rather than resuming garbage.
  core::Result<core::CalibrationCheckpoint> restore();

  /// Merge an already-loaded checkpoint into the per-tag state (the body of
  /// restore() minus the store read).  The fleet layer batches many
  /// supervisors' checkpoints into one shard file and feeds each supervisor
  /// its slice through this hook.
  void restoreFrom(const core::CalibrationCheckpoint& ckpt);

  /// Advance every session, ingest their output, restart the failed,
  /// checkpoint when due.
  void tick(double nowS);

  /// Wind down: stop all sessions and write a final checkpoint.
  void shutdown(double nowS);

  /// Offer one decoded report to the per-tag accumulators -- what tick()
  /// does with every report a session drains.  Weak, invalid (non-finite
  /// time or phase, no finite frequency > 0), unknown-EPC and duplicate
  /// reports are counted and dropped.
  void ingest(const rfid::TagReport& report);

  core::Result<core::ResilientFix2D> tryLocate2D() const;

  /// Locate with recovery: like tryLocate2D, but when the spin
  /// self-diagnosis quarantined a rig, that tag's accumulated snapshots are
  /// discarded so the live stream re-acquires a fresh spin ("please spin
  /// again") instead of repeatedly feeding the locator a corrupted
  /// spectrum.  The fix itself -- already computed without the quarantined
  /// rig, at degraded confidence -- is returned as-is; the successful fix
  /// is also cached for the next checkpoint's [last_fix] section.
  core::Result<core::ResilientFix2D> locateAndRecover2D(double nowS);

  /// Snapshot the full calibration state as a checkpoint struct.
  core::CalibrationCheckpoint makeCheckpoint(double nowS) const;

  /// The fix-stream tracker (null unless config.trackFixes).  Exposed so
  /// the evaluation / fleet layers can read the smoothed trajectory.
  track::Tracker* tracker() { return tracker_.get(); }
  const track::Tracker* tracker() const { return tracker_.get(); }

  void setOrientationModel(const rfid::Epc& epc, core::OrientationModel m);

  /// Deterministic estimate of the resident bytes this supervisor's
  /// accumulated state costs: session queue capacity, per-tag snapshot
  /// storage and dedup keys, the drain scratch, and the tracker history.
  /// Malloc overhead and fixed members are ignored -- the estimate only
  /// needs to move with the real costs for budget accounting to work.
  uint64_t memoryFootprintBytes() const;

  /// Shed memory under pressure: decimate every tag's stored snapshots 2x
  /// (the same operation as the overflow decimation, so full-spin arc
  /// coverage survives at reduced density), halve the future accept rate,
  /// and return the scratch buffers.  Returns the estimated bytes freed;
  /// repeated calls keep halving until only a residual floor remains.
  uint64_t trimMemory();

  size_t sessionCount() const { return slots_.size(); }
  const ReaderSession& session(size_t i) const { return *slots_[i].session; }
  const SupervisorStats& stats() const { return stats_; }
  const core::DeploymentFile& deployment() const { return deployment_; }
  size_t tagSnapshotCount(const rfid::Epc& epc) const;
  /// Reader-clock high watermark across every ingested report.
  double lastReportTimestampS() const { return lastReaderTimestampS_; }

 private:
  struct TagState {
    std::vector<core::Snapshot> snapshots;
    /// Packed (time, phase, channel) keys of accepted snapshots.  Bounded
    /// by the accept path; a multi-day deployment would swap this for a
    /// rolling filter.
    std::unordered_set<uint64_t> seen;
    uint64_t acceptStride = 1;  // decimation stride after overflow
    uint64_t offerCounter = 0;
  };
  struct Slot {
    std::string name;
    TransportFactory factory;
    std::unique_ptr<ReaderSession> session;
  };

  /// Registry handles mirroring SupervisorStats plus checkpoint telemetry;
  /// resolved once at construction (all null when uninstrumented).
  struct Instruments {
    obs::Counter* reportsSeen = nullptr;
    obs::Counter* reportsIngested = nullptr;
    obs::Counter* duplicatesSuppressed = nullptr;
    obs::Counter* unknownEpcDropped = nullptr;
    obs::Counter* weakRssiDropped = nullptr;
    obs::Counter* invalidDropped = nullptr;
    obs::Counter* decimationsApplied = nullptr;
    obs::Counter* sessionsRestarted = nullptr;
    obs::Counter* checkpointSaves = nullptr;
    obs::Counter* checkpointFailures = nullptr;
    obs::Counter* checkpointBytes = nullptr;
    obs::Counter* respinsRequested = nullptr;      // robust.respins_requested
    obs::Counter* phaseOutliersDropped = nullptr;  // preprocess.*
    obs::Histogram* checkpointSpan = nullptr;      // span.checkpoint_write
    obs::Histogram* preprocessSpan = nullptr;      // span.preprocess
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  /// `epcsOut`, when non-null, receives the EPC of each returned
  /// observation (parallel vectors) -- locateAndRecover2D needs the
  /// mapping back from rig-health indices to tag state.
  std::vector<core::RigObservation> buildObservations(
      std::vector<rfid::Epc>* epcsOut = nullptr) const;
  const core::RigSpec* findRig(const rfid::Epc& epc) const;
  /// Thin a tag 2x: keep every other snapshot (all revolutions stay
  /// covered, at half density) and admit future reports at half rate.
  void decimate(TagState& tag);
  void requestRespin(const rfid::Epc& epc, double nowS);
  void saveCheckpoint(double nowS);

  SupervisorConfig config_;
  core::DeploymentFile deployment_;
  CheckpointStore* store_;
  core::Locator locator_;
  std::vector<Slot> slots_;
  std::map<rfid::Epc, TagState> tags_;
  std::map<rfid::Epc, core::OrientationModel> models_;
  SupervisorStats stats_;
  Instruments obs_;
  std::unique_ptr<track::Tracker> tracker_;
  core::FixRecord lastFix_;
  uint64_t checkpointSequence_ = 0;
  double lastReaderTimestampS_ = 0.0;
  rfid::ReportStream drainScratch_;
};

}  // namespace tagspin::runtime
