// Crash-consistency evaluation: the systematic falsifier for every
// durability claim in the tree.
//
// Three escalating attacks, all against sim::SimIoEnv (never the real
// disk), all fully deterministic:
//
//  1. Exhaustive crash-point exploration.  Each scripted workload --
//     repeated checkpoint saves, capture append, capture reopen (clean and
//     torn), and the fleet shard-checkpoint fan-out -- is run once per
//     syscall boundary with a power cut scheduled exactly there.  At every
//     cut the post-crash disk is materialized under a set of write-back
//     persistence variants (nothing / everything / metadata-only /
//     seeded-prefix-with-torn-write / seeded-reordered-subset), *real*
//     recovery is run against it (CheckpointStore::load, scanValidPrefix +
//     decodeCaptureTolerant, CaptureWriter reopen-and-extend), and the
//     workload's oracle checks the invariants: a checkpoint is bit-identical
//     to old-or-new, a capture decodes to a valid prefix of what was
//     appended that covers everything acked as fsynced, and reopen resumes
//     without corrupting earlier chunks.
//
//  2. Seeded fault-schedule search.  Random schedules of injected faults
//     (EIO, ENOSPC, EINTR, short writes, partially-persisting fsync
//     failures, and power cuts) by global syscall index are thrown at the
//     fleet fan-out path; crashing runs are checked across all persistence
//     variants, surviving runs against the live state plus a no-.tmp-litter
//     invariant.
//
//  3. Falsification proof.  A deliberately broken writer (tmp+rename
//     WITHOUT the data fsync -- the classic ordering bug) is swept by the
//     same explorer; it must be caught, and a failing fault schedule found
//     by search must shrink, via delta debugging (ddminShrink), to a
//     minimal replayable artifact (seed + schedule JSON) of the kind a bug
//     report would carry.  A harness that cannot flag a planted bug proves
//     nothing by passing.
//
// All three run through one path (eval/explore.hpp): a crash point at op k
// is the one-fault schedule {k, kCrash}, run like any searched schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/explore.hpp"
#include "sim/io_sim.hpp"

namespace tagspin::eval {

/// The workloads' sizes are fixed: 10 growing checkpoint saves; the
/// capture writer framing 8 reports a chunk with an fsync every 2 chunks,
/// and reopen-and-extend appending 10 more; a 3-shard x 4-round fleet
/// fan-out; and 4 seeds for each random persistence mode.
struct CrashExploreConfig {
  uint64_t seed = 0xC4A5117ULL;

  /// Capture workloads: reports appended per run.
  size_t captureReports = 120;

  /// Fault-schedule search: random schedules thrown at the fleet fan-out
  /// path.
  size_t scheduleRounds = 96;
};

struct CrashEvalResult {
  /// Per workload; `points` counts the crash-point recoveries (boundary x
  /// persistence variant).
  std::vector<ExploreStats> workloads;
  uint64_t totalBoundaries = 0;
  uint64_t totalCrashPoints = 0;
  uint64_t totalViolations = 0;
  std::vector<Violation<sim::Fault>> violations;  // capped

  // Fault-schedule search over the fleet fan-out path.
  uint64_t scheduleRuns = 0;
  uint64_t scheduleCrashes = 0;     // runs whose schedule fired a power cut
  uint64_t scheduleChecks = 0;      // recovery checks performed
  uint64_t scheduleViolations = 0;

  /// Falsification arm (deliberately broken writer).
  PlantedBug brokenWriter;

  /// Zero violations on the correct writers AND the planted bug was caught
  /// and shrunk.
  bool pass = false;
};

CrashEvalResult runCrashEval(const CrashExploreConfig& config);

/// Full result as JSON (the BENCH_crash.json payload).
std::string crashJson(const CrashEvalResult& result);

}  // namespace tagspin::eval
