// The fault-point explorer shared by eval/crash (power cuts and I/O faults
// against sim::SimIoEnv) and eval/oom (allocation failures against
// sim::SimMemEnv).
//
// Every explored run is one call of the harness's run function: a fresh
// simulated environment armed with a fault schedule, the workload, then the
// harness's checks.  The fault-free probe is the empty schedule, a swept
// fault point is the one-fault schedule {fault}, and a searched or
// planted-bug schedule is whatever the search drew -- so every violation
// replays from its schedule alone.  The skeleton is generic over the fault
// type (sim::Fault or sim::MemFault); each harness supplies only its run
// function, its sweep and its fault draw.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace tagspin::eval {

/// A searched schedule holds 1..kMaxScheduleFaults faults.
inline constexpr size_t kMaxScheduleFaults = 4;
/// Violations kept with full detail (counts are always exact).
inline constexpr size_t kMaxViolationDetails = 32;
/// Schedules drawn against a planted bug before giving up; the search stops
/// at the first one that fails.
inline constexpr size_t kPlantedSearchRounds = 400;

/// One invariant violation, with everything needed to replay it.
template <typename Fault>
struct Violation {
  std::string workload;
  /// Op index of the swept fault; -1 for fault-free and searched runs.
  int64_t atOp = -1;
  std::vector<Fault> schedule;  // empty for the fault-free run
  /// Crash explorer only: the persistence variant recovery ran under
  /// ("live" when no power cut fired) and its seed.
  std::string persistMode;
  uint64_t persistSeed = 0;
  std::string detail;
};

/// What one explored run saw.
template <typename Fault>
struct RunOutcome {
  uint64_t ops = 0;         // boundaries the workload issued
  uint64_t checks = 0;      // invariant checks run
  uint64_t violations = 0;  // checks that failed
  /// Faults that took effect: 1 when a power cut fired, or the number of
  /// reservations denied.
  uint64_t fired = 0;
  std::optional<Violation<Fault>> first;  // the first failed check
};

struct ExploreStats {
  std::string name;
  uint64_t boundaries = 0;  // ops of the fault-free run
  /// Checks over the swept runs: one per allocation-failure point, one per
  /// persistence variant of each power cut.
  uint64_t points = 0;
  uint64_t fired = 0;  // RunOutcome::fired summed over the swept runs
  uint64_t violations = 0;
};

template <typename Fault>
void keepViolation(std::vector<Violation<Fault>>& details,
                   Violation<Fault> violation) {
  if (details.size() < kMaxViolationDetails) {
    details.push_back(std::move(violation));
  }
}

/// Sweep one workload.  The fault-free run gives the boundary count and is
/// checked like any other; `sweep(boundaries)` then lists the faults to
/// try, one run per one-fault schedule.  `run(schedule)` returns a
/// RunOutcome<Fault>.
template <typename Fault, typename RunFn, typename SweepFn>
ExploreStats exploreWorkload(std::string name, const RunFn& run,
                             const SweepFn& sweep,
                             std::vector<Violation<Fault>>& details) {
  ExploreStats stats;
  stats.name = std::move(name);
  const RunOutcome<Fault> base = run(std::vector<Fault>{});
  stats.boundaries = base.ops;
  stats.violations += base.violations;
  if (base.first) {
    Violation<Fault> v = *base.first;
    v.detail = "baseline: " + v.detail;
    keepViolation(details, std::move(v));
  }
  for (const Fault& fault : sweep(stats.boundaries)) {
    const RunOutcome<Fault> out = run(std::vector<Fault>{fault});
    stats.points += out.checks;
    stats.fired += out.fired;
    stats.violations += out.violations;
    if (out.first) {
      Violation<Fault> v = *out.first;
      v.atOp = static_cast<int64_t>(fault.opIndex);
      keepViolation(details, std::move(v));
    }
  }
  return stats;
}

/// A seeded schedule of 1..kMaxScheduleFaults faults at ops below `maxOp`,
/// sorted by op.  The draw order is fixed -- the count, then for each fault
/// its op and `draw(rng, op)` for the rest -- so a seed names a schedule.
template <typename Fault, typename DrawFn>
std::vector<Fault> randomSchedule(std::mt19937_64& rng, uint64_t maxOp,
                                  const DrawFn& draw) {
  const size_t n = 1 + rng() % kMaxScheduleFaults;
  std::vector<Fault> schedule;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t op = rng() % maxOp;
    schedule.push_back(draw(rng, op));
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Fault& a, const Fault& b) {
              return a.opIndex < b.opIndex;
            });
  return schedule;
}

/// Delta-debugging (ddmin) minimizer: classic ddmin over a vector -- try
/// each chunk alone (aggressive reduction first), then each complement,
/// doubling granularity when nothing shrinks.  The result is 1-minimal at
/// the final granularity: removing any single chunk makes `fails` pass.
/// `fails` must be deterministic and `sequence` itself is assumed failing.
/// Elements only need to be copyable.
template <typename T, typename FailsFn>
std::vector<T> ddminShrink(const std::vector<T>& sequence,
                           const FailsFn& fails) {
  std::vector<T> cur = sequence;
  size_t n = 2;
  while (cur.size() >= 2) {
    const size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    // Try each chunk alone (aggressive reduction first)...
    for (size_t i = 0; i < cur.size() && !reduced; i += chunk) {
      std::vector<T> subset(cur.begin() + i,
                            cur.begin() + std::min(i + chunk, cur.size()));
      if (subset.size() < cur.size() && fails(subset)) {
        cur = std::move(subset);
        n = 2;
        reduced = true;
      }
    }
    // ...then each complement (drop one chunk).
    for (size_t i = 0; i < cur.size() && !reduced; i += chunk) {
      std::vector<T> complement(cur.begin(), cur.begin() + i);
      complement.insert(complement.end(),
                        cur.begin() + std::min(i + chunk, cur.size()),
                        cur.end());
      if (!complement.empty() && complement.size() < cur.size() &&
          fails(complement)) {
        cur = std::move(complement);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;
      n = std::min(n * 2, cur.size());
    }
  }
  return cur;
}

/// The falsification arm's verdict: a harness that cannot flag a bug
/// planted on purpose proves nothing by passing.
struct PlantedBug {
  bool caught = false;          // the sweep flagged it
  bool scheduleFound = false;   // the search found a failing schedule
  uint64_t scheduleFaults = 0;  // its faults before shrinking
  uint64_t shrunkFaults = 0;    // and after ddmin
  std::string artifactJson;     // the minimal replayable artifact

  /// The search found a failing schedule and ddmin shrank it.
  bool shrunk() const {
    return scheduleFound && shrunkFaults >= 1 &&
           shrunkFaults <= scheduleFaults;
  }
  bool ok() const { return caught && shrunk(); }

  /// The planted-bug block of the sidecars.
  std::string json() const {
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    return std::string("{\"caught\": ") + flag(caught) +
           ", \"schedule_found\": " + flag(scheduleFound) +
           ", \"schedule_faults\": " + std::to_string(scheduleFaults) +
           ", \"shrunk_faults\": " + std::to_string(shrunkFaults) +
           ", \"artifact\": " +
           (artifactJson.empty() ? "null" : artifactJson) + "}";
  }
};

/// Probe a planted bug.  `fails(schedule)` runs the broken workload under
/// `schedule` and says whether the harness flagged it.  The sweep must
/// catch it at one of the one-fault schedules {f}, f in `sweep`; the search
/// draws schedules at ops below `maxOp` until one fails, ddmin shrinks it,
/// and `artifact(shrunk)` describes the result.
template <typename Fault, typename DrawFn, typename FailsFn,
          typename ArtifactFn>
PlantedBug falsify(const std::vector<Fault>& sweep, std::mt19937_64 rng,
                   uint64_t maxOp, const DrawFn& draw, const FailsFn& fails,
                   const ArtifactFn& artifact) {
  PlantedBug bug;
  bug.caught = std::any_of(sweep.begin(), sweep.end(), [&](const Fault& f) {
    return fails(std::vector<Fault>{f});
  });
  std::vector<Fault> failing;
  for (size_t r = 0; r < kPlantedSearchRounds && failing.empty(); ++r) {
    std::vector<Fault> candidate = randomSchedule<Fault>(rng, maxOp, draw);
    if (fails(candidate)) failing = std::move(candidate);
  }
  if (failing.empty()) return bug;
  bug.scheduleFound = true;
  bug.scheduleFaults = failing.size();
  const std::vector<Fault> shrunk = ddminShrink(failing, fails);
  bug.shrunkFaults = shrunk.size();
  bug.artifactJson = artifact(shrunk);
  return bug;
}

}  // namespace tagspin::eval
