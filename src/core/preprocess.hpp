// Report-stream preprocessing: reports -> snapshots, plus the phase-sequence
// smoothing of paper section III-B used for inspection and Fig. 3/4.
#pragma once

#include <vector>

#include "core/errors.hpp"
#include "core/snapshot.hpp"
#include "rfid/epc.hpp"
#include "rfid/report.hpp"

namespace tagspin::core {

/// Reads weaker than this are dropped (spurious reads through the back
/// lobe), here and at runtime::Supervisor::ingest.
inline constexpr double kMinRssiDbm = -90.0;

struct PreprocessConfig {
  /// Keep at most this many snapshots (0 = unlimited); evenly subsampled to
  /// bound spectrum cost for very long interrogations.  4000 snapshots keep
  /// the subsampling penalty negligible at the default 30 s interrogation.
  size_t maxSnapshots = 4000;

  /// Run the three repair stages of extractSnapshotsRobust (the only
  /// reader of this switch), in order:
  ///  - dedupe: remove exact duplicate reads (reader retransmits) -- same
  ///    timestamp, phase and channel after sorting;
  ///  - timestamp repair: drop reads whose timestamp is isolated from the
  ///    rest of the trace (clock glitches that survive sorting), i.e. whose
  ///    nearest temporal neighbour is further than max(0.5 s, 50 * median
  ///    step) away;
  ///  - Hampel/MAD filter on the wrapped phase sequence ahead of unwrapping
  ///    (hampelFilterPhases).
  bool repair = true;
};

/// What the robust extraction repaired (diagnostics / chaos reporting).
struct RepairStats {
  /// Reports with a non-finite timestamp, phase or frequency.
  size_t nonFiniteDropped = 0;
  size_t duplicatesRemoved = 0;
  size_t timestampOutliersDropped = 0;
  size_t phaseOutliersDropped = 0;
};

/// Extract the snapshots of one tag (by EPC) from a report stream, sorted by
/// time.  Throws std::invalid_argument if the stream contains no usable
/// report for the EPC.
std::vector<Snapshot> extractSnapshots(const rfid::ReportStream& reports,
                                       const rfid::Epc& epc,
                                       const PreprocessConfig& config = {});

/// Non-throwing, hardened variant of extractSnapshots: with config.repair
/// set, applies the repair stages (dedup -> timestamp repair -> Hampel phase
/// filter) after sorting and before subsampling.  On a clean stream with no
/// duplicates, glitches or phase outliers the result is bit-identical to
/// extractSnapshots.  Errors (no usable reports, everything filtered away)
/// come back as ErrorCode, never as an exception.
Result<std::vector<Snapshot>> extractSnapshotsRobust(
    const rfid::ReportStream& reports, const rfid::Epc& epc,
    const PreprocessConfig& config = {}, RepairStats* repairs = nullptr);

/// The Hampel/MAD stage alone (the supervisor runs it on its accumulated
/// snapshots): returns the snapshots whose wrapped phase survives the
/// windowed circular-median test.  A read whose phase deviates from the
/// median of its 10 neighbours (an 11-sample window) by more than 6
/// MAD-sigmas, and by more than 0.05 rad, is discarded as an interference
/// outlier; the floor keeps a near-zero MAD (repeated quantised phases)
/// from rejecting healthy reads.
std::vector<Snapshot> hampelFilterPhases(const std::vector<Snapshot>& snaps,
                                         size_t* dropped = nullptr);

/// Unwrapped ("smoothed", section III-B) phase sequence of the snapshots.
std::vector<double> smoothedPhases(const std::vector<Snapshot>& snaps);

/// Sampling density (reads per second) estimated over sliding windows; used
/// to reproduce the segment-A/B/C density observation of Fig. 4(b).
std::vector<double> samplingDensity(const std::vector<Snapshot>& snaps,
                                    double windowS);

}  // namespace tagspin::core
