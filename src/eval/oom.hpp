// Resource-exhaustion evaluation: the systematic falsifier for every
// memory-pressure claim in the tree, the allocation twin of eval/crash.
//
// Three escalating attacks, all against sim::SimMemEnv (never the real
// allocator), all fully deterministic:
//
//  1. Exhaustive allocation-failure exploration.  Five workloads -- the
//     fleet at steady state, a session connect storm, a capture-replay
//     fan-out, a tracker ghost burst, and the shard checkpoint save path
//     -- are each probed once fault-free to count their reservation
//     boundaries, then re-run with an injected fault (deny / burst /
//     cliff / poison, cycled) at stride-sampled reservation indices.
//     After every injected run the environment's oracles and the
//     workload's own invariants are checked: no exception crossed the
//     workload boundary, accounting returned to zero (no leak), no
//     caller released bytes it never reserved (underflow), the failure
//     stayed isolated (sessions quarantined <= denials injected; refused
//     replay streams <= denials; every other session/stream kept
//     working), and once the injector is disarmed and pressure cleared,
//     reservations succeed again (full recovery).  Budgets need no check
//     of their own: core::MemArena enforces them when it grants.
//
//  2. Seeded fault-schedule search.  Random multi-fault schedules are
//     thrown at the fleet steady-state path and checked against the same
//     invariants -- the combinations single-point exploration cannot
//     reach (a cliff landing mid-burst, poison during a trim retry).
//
//  3. Falsification proof.  A deliberately broken shed cache -- on a
//     denied reservation it "sheds" an entry it never admitted, the
//     classic release-without-reserve accounting bug -- is swept by the
//     same explorer; it must be caught (underflow oracle), and a failing
//     schedule found by search must shrink via ddmin to a minimal
//     replayable artifact.  A harness that cannot flag a planted bug
//     proves nothing by passing.
//
// All three run through one path (eval/explore.hpp): a fault-free probe,
// a sampled point and a searched schedule are each one run of a fresh
// SimMemEnv armed with a schedule.
//
// Two paired gates ride along: the PARITY gate runs the fleet once with
// memory accounting off and once with a fault-free SimMemEnv attached and
// requires bit-identical fix digests (the seam itself must cost nothing);
// the PRESSURE arm sizes shard budgets to ~80% end-state utilization from
// a probe run and requires the fleet to keep >= 99% of sessions fixed
// while trimming under sustained pressure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/explore.hpp"
#include "sim/mem_sim.hpp"

namespace tagspin::eval {

/// The pressure arm's gate: the share of sessions that must end with a fix.
inline constexpr double kPressureMinFixRate = 0.99;

/// The fleet runs one revolution plus 3 s to settle and 2 s to recover at
/// 0.1 s ticks; the planted bug's cache makes 64 reservations; the
/// pressure arm's shard budget is 1.25x the probe run's per-shard peak
/// (~80% end-state utilization).
struct OomExploreConfig {
  uint64_t seed = 0x00A11C47ULL;

  /// Fleet-driven workloads (steady state, connect storm, checkpoint
  /// save): sessions and fault domains.  Kept small -- every sampled
  /// failure point replays the whole run.
  size_t fleetSessions = 6;
  size_t fleetShards = 2;

  /// Replay fan-out workload: sessions sharing one capture, reports in it.
  size_t replaySessions = 8;
  size_t replayReports = 96;

  /// Tracker ghost burst: fixes fed (with periodic ghosts and gaps) and
  /// the bounded-history cap under test.
  size_t trackerFixes = 240;
  size_t trackerHistoryLimit = 64;

  /// Allocation-failure points sampled per workload (stride over the
  /// probe run's reservation count; fault kinds cycle deny / burst /
  /// cliff / poison).
  size_t pointsPerWorkload = 104;

  /// Seeded fault-schedule search over the fleet steady-state path.
  size_t scheduleRounds = 24;
};

struct OomEvalResult {
  /// Per workload; `points` counts the injected runs and `fired` the
  /// reservations they denied.
  std::vector<ExploreStats> workloads;
  uint64_t totalBoundaries = 0;
  uint64_t totalPoints = 0;
  uint64_t totalViolations = 0;
  std::vector<Violation<sim::MemFault>> violations;  // capped

  // Fault-schedule search over the fleet steady-state path.
  uint64_t scheduleRuns = 0;
  uint64_t scheduleDenials = 0;
  uint64_t scheduleViolations = 0;

  // Zero-injection parity gate.
  bool parityBitIdentical = false;
  std::string parityBaselineDigest;  // accounting off
  std::string paritySeamDigest;      // SimMemEnv attached, no faults

  // Sustained-pressure arm.
  double pressureFixRate = 0.0;
  double pressureUtilization = 0.0;  // peak / (shards * budget)
  uint64_t pressureShardBudgetBytes = 0;
  uint64_t pressureTrims = 0;
  uint64_t pressureEjections = 0;
  uint64_t pressureDeniedReserves = 0;
  bool pressureRecovered = false;  // accounting returned to zero after

  /// Falsification arm (planted release-without-reserve cache).
  PlantedBug brokenCache;

  /// Zero violations on the correct components, parity bit-identical,
  /// pressure arm kept its fix rate, AND the planted bug was caught and
  /// shrunk.
  bool pass = false;
};

OomEvalResult runOomEval(const OomExploreConfig& config);

/// Full result as JSON (the BENCH_oom.json payload).
std::string oomJson(const OomEvalResult& result);

}  // namespace tagspin::eval
