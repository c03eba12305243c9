// FleetManager: fault-domain-isolated supervision of hundreds-to-thousands
// of reader sessions over a fixed worker pool.
//
// The single-deployment Supervisor drives a handful of sessions with no
// isolation between them; at fleet scale one flapping transport must not
// starve its neighbors.  The fleet layer adds exactly that containment:
//
//  * Fault domains (shards).  Every session is pinned to one shard; each
//    tick a shard of n sessions spends at most 3n + 8 work units on them
//    (a session tick costs 1 unit, a connect attempt 4, decoded bytes
//    ~1/KiB, a fix recomputation 24).  Sessions a shard cannot afford
//    this tick are deferred to the next in round-robin order, so overload
//    in one shard surfaces as latency in THAT shard only.  Because the
//    budget is denominated in work units against the tick clock, fix
//    latency (servicedAt - dueAt) is measured in simulated seconds and is
//    deterministic -- independent of host CPU and thread count.
//
//  * Shard-local retry budget.  A token bucket is installed as every
//    session's connectGate (consulted before the circuit breaker so a
//    denied attempt never burns the breaker's half-open probe).  After a
//    correlated outage the cohort's reconnects drain the bucket and the
//    storm is converted into paced re-admission at the refill rate instead
//    of a thundering herd of simultaneous connect work.  A session's first
//    attempt is always admitted: the budget paces RECONNECT storms, not a
//    cold-starting fleet bringing everything up at once.
//
//  * Quarantine ring.  Sessions that keep flapping (6 flap events --
//    disconnects, connect failures, supervisor-level restarts -- within
//    30 s) are ejected: they stop being scheduled and instead get short
//    probe windows at escalating intervals (probeBaseS, doubling up to
//    64 s).  A probe that reaches STREAMING re-admits the session with a
//    clean flap history.
//
//  * Overload protection at the fleet boundary.  Admission control caps
//    registration (in total, and at ceil(maxSessions / shards) per shard).
//    Load shedding watches each shard's demand/budget pressure (EMA) and
//    degrades gracefully: above 0.9 (kDegraded) it stretches fix
//    recomputation intervals 2x and checkpoint cadence 4x (the
//    degrade_sampling idea at fleet granularity); above 1.3 (kCritical) it
//    stretches checkpoints 8x and skips recomputation for sessions that
//    already hold a fix.  A level is left only 0.15 below its threshold,
//    so the fleet doesn't oscillate.
//
//  * Bounded checkpoint fan-out.  N sessions do not amplify into N fsyncs
//    per tick: each shard batches ALL its sessions into one durable file
//    (CheckpointStore framing + writeFileDurable), shards' deadlines are
//    staggered, and at most maxCheckpointWritesPerTick shards may write on
//    any tick.
//
// Threading: shards are independent by construction, so with
// workerThreads > 0 a persistent pool processes shards in parallel; all
// cross-shard state is either atomic (metrics), mutex-protected (journal)
// or coordinator-only.  Fix events are drained in shard order after the
// parallel phase, so results and callbacks are deterministic regardless of
// thread count.  workerThreads = 0 runs everything inline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/io_env.hpp"
#include "core/mem_env.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "runtime/supervisor.hpp"

namespace tagspin::runtime {

/// Token bucket used as the shard-local retry budget.  Time comes from the
/// caller (tick-driven like everything else); the first acquire anchors the
/// refill clock.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double tokensPerSecond, double burst)
      : rate_(tokensPerSecond), burst_(burst), tokens_(burst) {}

  /// Take one token if available; refills lazily from elapsed time.
  bool tryAcquire(double nowS) {
    if (lastS_ < 0.0) lastS_ = nowS;
    if (nowS > lastS_) {
      tokens_ = std::min(burst_, tokens_ + (nowS - lastS_) * rate_);
      lastS_ = nowS;
    }
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_ = 2.0;
  double burst_ = 6.0;
  double tokens_ = 6.0;
  double lastS_ = -1.0;
};

struct RetryBudgetConfig {
  /// Refill rate of each shard's connect-attempt bucket.  The pacing knob:
  /// after a correlated outage a shard re-admits reconnects at this rate.
  double tokensPerSecond = 2.0;
  /// Bucket capacity; bounds how many attempts a quiet shard can burst.
  double burst = 6.0;
};

struct QuarantineConfig {
  /// Probe ladder: first probe after probeBaseS, each miss doubles the
  /// interval (capped at 64 s); a probe runs for probeWindowS.
  double probeBaseS = 4.0;
  double probeWindowS = 2.0;
};

enum class ShedLevel { kNone, kDegraded, kCritical };
const char* shedLevelName(ShedLevel level);

/// One serviced (or failed) fix recomputation; dueS is when the fix became
/// due, nowS when the scheduler got to it -- the difference is the latency
/// the fault-isolation claim is about.  Delivered on the coordinator thread
/// in deterministic shard order.
struct FleetFixEvent {
  std::string name;
  size_t shard = 0;
  double dueS = 0.0;
  double nowS = 0.0;
  bool ok = false;
};

struct FleetConfig {
  /// Template for every session's single-reader supervisor.  The fleet
  /// overrides per-supervisor persistence (checkpoints are batched per
  /// shard) and installs its retry-budget connectGate.
  SupervisorConfig supervisor;

  size_t shards = 4;
  /// Admission control: registerSession refuses beyond this, and beyond
  /// ceil(maxSessions / shards) in any one shard.
  size_t maxSessions = 4096;

  /// 0 = inline on the calling thread; otherwise a persistent pool of this
  /// many threads processes shards in parallel.
  size_t workerThreads = 0;

  RetryBudgetConfig retryBudget;
  QuarantineConfig quarantine;

  /// Fix recomputation cadence per session (staggered across sessions);
  /// until a session has produced its first fix it retries every second.
  double fixIntervalS = 5.0;

  /// Per-shard batched checkpoint cadence (0 or empty dir disables).
  double checkpointIntervalS = 10.0;
  size_t maxCheckpointWritesPerTick = 1;
  std::string checkpointDir;
  /// Storage environment for shard checkpoints; nullptr means the real
  /// filesystem (the crash-point explorer injects sim::SimIoEnv here).
  core::IoEnv* io = nullptr;

  /// Memory environment and byte budget.  With `mem` null and a zero
  /// budget, memory accounting is entirely off and the fleet is
  /// bit-identical to the pre-seam behavior (digest-gated in eval/oom).
  /// Otherwise each shard owns a core::MemArena charged with its members'
  /// estimated footprints (Supervisor::memoryFootprintBytes): a denied
  /// reservation first trims the offending session (2x snapshot
  /// decimation), then quarantines it -- the shard survives, the fleet
  /// never sees bad_alloc.  The worst shard's used/budget ratio is the
  /// shed ladder's memory axis: above 0.75 the fleet stretches cadences
  /// like work-degraded AND each over-pressure shard trims its largest
  /// member once per tick; above 0.92 the largest member is quarantined
  /// instead.  Its own 0.05 hysteresis keeps the two axes from chattering.
  core::MemEnv* mem = nullptr;
  uint64_t memBudgetPerShardBytes = 0;  // 0 = unlimited

  obs::MetricsRegistry* metrics = nullptr;
  obs::EventJournal* journal = nullptr;
  /// Invoked once per fix attempt, coordinator thread, shard order.
  std::function<void(const FleetFixEvent&)> onFix;
};

struct FleetStats {
  uint64_t admitted = 0;
  uint64_t admissionRejected = 0;
  uint64_t ejections = 0;
  uint64_t readmissions = 0;
  uint64_t probes = 0;
  uint64_t budgetDenied = 0;       // connectGate denials across the fleet
  uint64_t sessionsDeferred = 0;   // session-ticks pushed to a later tick
  uint64_t fixesComputed = 0;
  uint64_t fixesFailed = 0;        // attempted, locator not ready
  uint64_t fixesSkippedShed = 0;   // kCritical skipped a recomputation
  uint64_t checkpointWrites = 0;
  uint64_t checkpointFailures = 0;
  uint64_t shedDegradedTicks = 0;
  uint64_t shedCriticalTicks = 0;
  double workUnitsSpent = 0.0;
  size_t quarantinedNow = 0;
  // Memory axis (all zero when accounting is off).
  uint64_t memDeniedReserves = 0;  // arena denials across the fleet
  uint64_t memTrims = 0;           // sessions trimmed under pressure
  uint64_t memEjections = 0;       // sessions quarantined for memory
  uint64_t badAllocCaught = 0;     // bad_alloc absorbed at the worker boundary
  uint64_t memUsedBytes = 0;       // sum of shard arena usage now
  uint64_t memPeakBytes = 0;       // sum of shard arena peaks
};

class FleetManager {
 public:
  FleetManager(FleetConfig config, core::DeploymentFile deployment);
  ~FleetManager();
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Admission-controlled registration; the session is pinned to the
  /// least-loaded shard.  False (and nothing registered) when the fleet or
  /// every shard is at capacity.
  bool registerSession(std::string name, TransportFactory factory);

  /// Load every shard's batched checkpoint from checkpointDir and feed each
  /// registered session its slice (matched by name).  Call after
  /// registration, before the first tick.  Returns sessions restored;
  /// missing files are a fresh start, corrupt ones are skipped (counted in
  /// stats().checkpointFailures).
  size_t restore();

  /// Advance the whole fleet to nowS (monotone).
  void tick(double nowS);

  /// Stop every session and write a final checkpoint for every shard
  /// (ignoring the per-tick write limit).
  void shutdown(double nowS);

  size_t sessionCount() const;
  size_t shardCount() const { return shards_.size(); }
  /// Combined shed level: max of the work axis and the memory axis.
  ShedLevel shedLevel() const { return shedLevel_; }
  ShedLevel memShedLevel() const { return memShedLevel_; }
  /// Aggregated over all shards; cheap enough to call per tick.
  FleetStats stats() const;

  struct SessionView {
    std::string name;
    size_t shard = 0;
    SessionState state = SessionState::kDisconnected;
    bool quarantined = false;
    bool hasFix = false;
    uint64_t fixes = 0;
    uint64_t flapEvents = 0;  // lifetime total
    /// Fix-stream tracking (only when the supervisor template enables
    /// trackFixes): live track state and the smoothed estimate.
    bool hasTrack = false;
    track::TrackState trackState = track::TrackState::kDropped;
    geom::Vec2 trackPosition;
    geom::Vec2 trackVelocity;
  };
  std::vector<SessionView> sessions() const;

  /// Direct (read) access to one session's supervisor, for tests.
  const Supervisor* supervisor(const std::string& name) const;

 private:
  struct Member;
  struct Shard;
  class WorkerPool;

  /// Registry handles for the fleet-level counters and per-shard gauges.
  struct Instruments {
    obs::Counter* admissionRejected = nullptr;
    obs::Counter* ejections = nullptr;
    obs::Counter* readmissions = nullptr;
    obs::Counter* probes = nullptr;
    obs::Counter* budgetDenied = nullptr;
    obs::Counter* sessionsDeferred = nullptr;
    obs::Counter* fixesComputed = nullptr;
    obs::Counter* fixesSkippedShed = nullptr;
    obs::Counter* checkpointWrites = nullptr;
    obs::Counter* checkpointFailures = nullptr;
    obs::Gauge* shedLevel = nullptr;
    obs::Counter* memDenied = nullptr;       // fleet.mem_denied
    obs::Counter* memTrims = nullptr;        // fleet.mem_trims
    obs::Counter* memEjections = nullptr;    // fleet.mem_ejections
    obs::Counter* badAllocCaught = nullptr;  // fleet.bad_alloc_caught
    // Registry-level memory gauges (the Prometheus exporter prefixes every
    // name with "tagspin_", so these surface as tagspin_mem_*).
    obs::Gauge* memUsedBytes = nullptr;    // mem.used_bytes
    obs::Gauge* memBudgetBytes = nullptr;  // mem.budget_bytes
    obs::Gauge* memPressure = nullptr;     // mem.pressure (worst shard)
    obs::Gauge* memShedLevel = nullptr;    // mem.shed_level
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  void processShard(Shard& shard, double nowS);
  /// Tick one member's supervisor and return the work-unit cost; updates
  /// flap tracking and (for active members) fix scheduling.
  double processMember(Shard& shard, Member& member, double nowS);
  double tickSupervisor(Shard& shard, Member& member, double nowS);
  double maybeFix(Shard& shard, Member& member, double nowS);
  /// Re-estimate one member's footprint and settle the delta against the
  /// shard arena: shrink releases, growth reserves, denial trims, and a
  /// trim that still doesn't fit quarantines the member (memEject).
  void accountMemory(Shard& shard, Member& member, double nowS);
  /// Quarantine a member for memory: hard-trim its state, release what the
  /// trim freed, and park it in the regular quarantine ring.
  void memEject(Shard& shard, Member& member, double nowS);
  /// Per-tick shard-local pressure response: trim (degraded) or quarantine
  /// (critical) the shard's largest member.
  void shedShardMemory(Shard& shard, double nowS);
  void eject(Shard& shard, Member& member, double nowS);
  void readmit(Shard& shard, Member& member, double nowS);
  void writeShardCheckpoint(Shard& shard, double nowS);
  std::string shardCheckpointPath(size_t shardIndex) const;
  void updateShedLevel();
  double effectiveFixIntervalS() const;
  double effectiveCheckpointIntervalS() const;

  FleetConfig config_;
  core::DeploymentFile deployment_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, Member*> byName_;
  std::unique_ptr<WorkerPool> pool_;
  ShedLevel shedLevel_ = ShedLevel::kNone;      // max(work, mem)
  ShedLevel workShedLevel_ = ShedLevel::kNone;  // demand/budget axis
  ShedLevel memShedLevel_ = ShedLevel::kNone;   // arena-pressure axis
  bool memAccounting_ = false;
  uint64_t admitted_ = 0;
  uint64_t admissionRejected_ = 0;
  uint64_t shedDegradedTicks_ = 0;
  uint64_t shedCriticalTicks_ = 0;
  Instruments obs_;
};

}  // namespace tagspin::runtime
