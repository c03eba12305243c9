#include "runtime/fleet.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "runtime/checkpoint.hpp"

namespace tagspin::runtime {

namespace {

/// A session without a fix retries this often.
constexpr double kFixRetryS = 1.0;

/// Quarantine: this many flap events within the window eject a session;
/// each missed probe multiplies the probe interval, up to the cap.
constexpr uint64_t kFlapThreshold = 6;
constexpr double kFlapWindowS = 30.0;
constexpr double kProbeMultiplier = 2.0;
constexpr double kProbeMaxS = 64.0;

/// The shed ladder: the work axis on the worst shard's demand/budget EMA,
/// the memory axis on its arena's used/budget ratio.  A level is entered
/// above its threshold and left below the threshold minus the hysteresis.
constexpr double kShedDegradedPressure = 0.9;
constexpr double kShedCriticalPressure = 1.3;
constexpr double kShedHysteresis = 0.15;
constexpr double kMemDegradedPressure = 0.75;
constexpr double kMemCriticalPressure = 0.92;
constexpr double kMemShedHysteresis = 0.05;
/// Cadence stretch while degraded; critical doubles the checkpoint one.
constexpr double kDegradedFixStretch = 2.0;
constexpr double kDegradedCheckpointStretch = 4.0;

}  // namespace

const char* shedLevelName(ShedLevel level) {
  switch (level) {
    case ShedLevel::kNone: return "none";
    case ShedLevel::kDegraded: return "degraded";
    case ShedLevel::kCritical: return "critical";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Internal structures

/// One fleet session: a single-reader Supervisor plus the scheduling,
/// flap-tracking and quarantine state the shard keeps about it.
struct FleetManager::Member {
  std::string name;
  std::unique_ptr<Supervisor> supervisor;
  size_t shard = 0;
  size_t indexInShard = 0;

  // Fix scheduling.  fixDueS < 0 until the first tick anchors the stagger.
  double fixDueS = -1.0;
  bool hasFix = false;
  uint64_t fixes = 0;

  // Stat watermarks for delta extraction.  A supervisor-level restart
  // resets the session's stats; deltas treat a shrink as "the new value is
  // the whole delta".
  uint64_t lastAttempts = 0;
  uint64_t lastFailures = 0;
  uint64_t lastDisconnects = 0;
  uint64_t lastRestarts = 0;
  uint64_t lastBytes = 0;

  std::vector<double> flapTimes;  // event times inside the sliding window
  uint64_t flapEventsTotal = 0;

  // Quarantine state.
  bool quarantined = false;
  double probeIntervalS = 0.0;
  double nextProbeS = 0.0;
  double probeEndS = -1.0;  // > nowS while a probe window is open

  /// Footprint bytes currently charged to the shard arena for this member.
  uint64_t memBytes = 0;
};

/// Cumulative per-shard counters.  Each shard is processed by exactly one
/// thread per tick, so these are plain integers; stats() sums across
/// shards from the coordinator after the parallel phase.
struct ShardCounters {
  uint64_t ejections = 0;
  uint64_t readmissions = 0;
  uint64_t probes = 0;
  uint64_t budgetDenied = 0;
  uint64_t sessionsDeferred = 0;
  uint64_t fixesComputed = 0;
  uint64_t fixesFailed = 0;
  uint64_t fixesSkippedShed = 0;
  uint64_t checkpointWrites = 0;
  uint64_t checkpointFailures = 0;
  uint64_t memDenied = 0;
  uint64_t memTrims = 0;
  uint64_t memEjections = 0;
  uint64_t badAllocCaught = 0;
  double workUnitsSpent = 0.0;
};

struct FleetManager::Shard {
  size_t index = 0;
  std::vector<std::unique_ptr<Member>> members;
  TokenBucket retryBudget;
  size_t cursor = 0;  // round-robin resume point across ticks
  size_t quarantinedCount = 0;

  double nextCheckpointS = -1.0;  // staggered lazily on the first due check
  bool checkpointGranted = false;

  /// demand/budget pressure, exponentially smoothed; read by the
  /// coordinator between ticks to pick the shed level.
  double pressureEma = 0.0;

  ShardCounters counters;
  std::vector<FleetFixEvent> pendingFix;  // drained by the coordinator

  /// Byte ledger for this fault domain (detached when accounting is off).
  core::MemArena memArena;

  obs::Gauge* sessionsGauge = nullptr;
  obs::Gauge* quarantinedGauge = nullptr;
  obs::Gauge* pressureGauge = nullptr;
  obs::Gauge* memBytesGauge = nullptr;
  obs::Gauge* memPressureGauge = nullptr;
};

/// Persistent pool of workers pulling shard indices from a shared ticket.
/// The coordinator thread participates too, so workerThreads = 1 still
/// means two lanes of progress and pool teardown can never deadlock a
/// half-finished tick.
class FleetManager::WorkerPool {
 public:
  explicit WorkerPool(size_t threads) {
    threads_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { workerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Run fn(0..jobs-1) across the pool + the calling thread; returns when
  /// every job has finished.
  void run(size_t jobs, const std::function<void(size_t)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    jobCount_ = jobs;
    nextJob_ = 0;
    ++generation_;
    cv_.notify_all();
    while (nextJob_ < jobCount_) {
      const size_t idx = nextJob_++;
      ++active_;
      lock.unlock();
      fn(idx);
      lock.lock();
      --active_;
    }
    doneCv_.wait(lock, [&] { return active_ == 0; });
    fn_ = nullptr;
  }

 private:
  void workerLoop() {
    uint64_t seenGeneration = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock,
               [&] { return stop_ || generation_ != seenGeneration; });
      if (stop_) return;
      seenGeneration = generation_;
      while (nextJob_ < jobCount_) {
        const size_t idx = nextJob_++;
        ++active_;
        lock.unlock();
        (*fn_)(idx);
        lock.lock();
        --active_;
      }
      if (active_ == 0) doneCv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t jobCount_ = 0;
  size_t nextJob_ = 0;
  size_t active_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

// ---------------------------------------------------------------------------
// Construction / registration

FleetManager::Instruments FleetManager::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.admissionRejected = registry->counter("fleet.admission_rejected");
  in.ejections = registry->counter("fleet.ejections");
  in.readmissions = registry->counter("fleet.readmissions");
  in.probes = registry->counter("fleet.probes");
  in.budgetDenied = registry->counter("fleet.budget_denied");
  in.sessionsDeferred = registry->counter("fleet.sessions_deferred");
  in.fixesComputed = registry->counter("fleet.fixes_computed");
  in.fixesSkippedShed = registry->counter("fleet.fixes_skipped_shed");
  in.checkpointWrites = registry->counter("fleet.checkpoint_writes");
  in.checkpointFailures = registry->counter("fleet.checkpoint_failures");
  in.shedLevel = registry->gauge("fleet.shed_level");
  in.memDenied = registry->counter("fleet.mem_denied");
  in.memTrims = registry->counter("fleet.mem_trims");
  in.memEjections = registry->counter("fleet.mem_ejections");
  in.badAllocCaught = registry->counter("fleet.bad_alloc_caught");
  in.memUsedBytes = registry->gauge("mem.used_bytes");
  in.memBudgetBytes = registry->gauge("mem.budget_bytes");
  in.memPressure = registry->gauge("mem.pressure");
  in.memShedLevel = registry->gauge("mem.shed_level");
  return in;
}

FleetManager::FleetManager(FleetConfig config, core::DeploymentFile deployment)
    : config_(std::move(config)), deployment_(std::move(deployment)) {
  if (config_.shards < 1) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (size_t k = 0; k < config_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shard->retryBudget = TokenBucket(config_.retryBudget.tokensPerSecond,
                                     config_.retryBudget.burst);
    memAccounting_ =
        config_.mem != nullptr || config_.memBudgetPerShardBytes > 0;
    if (memAccounting_) {
      shard->memArena =
          core::MemArena(config_.mem, config_.memBudgetPerShardBytes,
                         "fleet.shard" + std::to_string(k));
    }
    if (config_.metrics) {
      const std::string prefix = "fleet.shard" + std::to_string(k);
      shard->sessionsGauge = config_.metrics->gauge(prefix + ".sessions");
      shard->quarantinedGauge =
          config_.metrics->gauge(prefix + ".quarantined");
      shard->pressureGauge = config_.metrics->gauge(prefix + ".pressure");
      shard->memBytesGauge = config_.metrics->gauge(prefix + ".mem_bytes");
      shard->memPressureGauge =
          config_.metrics->gauge(prefix + ".mem_pressure");
    }
    shards_.push_back(std::move(shard));
  }
  if (config_.workerThreads > 0) {
    pool_ = std::make_unique<WorkerPool>(config_.workerThreads);
  }
  obs_ = Instruments::resolve(config_.metrics);
}

FleetManager::~FleetManager() = default;

bool FleetManager::registerSession(std::string name,
                                   TransportFactory factory) {
  const size_t perShardCap =
      (config_.maxSessions + shards_.size() - 1) / shards_.size();
  // Least-loaded shard (ties go to the lowest index, so round-robin
  // registration stripes cohorts evenly across fault domains).
  Shard* target = nullptr;
  for (auto& shard : shards_) {
    if (shard->members.size() >= perShardCap) continue;
    if (!target || shard->members.size() < target->members.size()) {
      target = shard.get();
    }
  }
  if (sessionCount() >= config_.maxSessions || target == nullptr ||
      byName_.count(name) > 0) {
    ++admissionRejected_;
    obs::add(obs_.admissionRejected);
    obs::record(config_.journal, 0.0, obs::Severity::kWarn,
                "fleet admission rejected", {{"session", name}});
    return false;
  }

  auto member = std::make_unique<Member>();
  member->name = name;
  member->shard = target->index;
  member->indexInShard = target->members.size();

  SupervisorConfig supConfig = config_.supervisor;
  supConfig.checkpointIntervalS = 0.0;  // persistence is batched per shard
  if (config_.metrics && !supConfig.metrics) {
    supConfig.metrics = config_.metrics;
  }
  if (config_.journal && !supConfig.journal) {
    supConfig.journal = config_.journal;
  }
  // Shard-local retry budget as the connect gate.  Shards never move or
  // reallocate after construction, and the gate only runs while this
  // shard's processor owns the member, so the captures are safe.  A
  // session's FIRST attempt is always admitted -- the budget paces
  // reconnect storms, and a cold-starting fleet connecting everything at
  // once is admission's problem (the work-unit scheduler spreads the
  // connect work), not a retry storm.  Supervisor-level restarts get the
  // same free attempt: the replacement is a fresh endpoint and the circuit
  // breaker already throttled the path to it.
  Shard* shardPtr = target;
  Member* memberPtr = member.get();
  supConfig.session.connectGate = [this, shardPtr, memberPtr](double nowS) {
    if (memberPtr->supervisor->session(0).stats().connectAttempts == 0) {
      return true;
    }
    if (shardPtr->retryBudget.tryAcquire(nowS)) return true;
    ++shardPtr->counters.budgetDenied;
    obs::add(obs_.budgetDenied);
    return false;
  };
  member->supervisor = std::make_unique<Supervisor>(
      std::move(supConfig), deployment_, /*store=*/nullptr);
  member->supervisor->addSession(member->name, std::move(factory));

  byName_[member->name] = member.get();
  target->members.push_back(std::move(member));
  ++admitted_;
  return true;
}

size_t FleetManager::sessionCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->members.size();
  return n;
}

// ---------------------------------------------------------------------------
// Tick

double FleetManager::effectiveFixIntervalS() const {
  return shedLevel_ == ShedLevel::kNone
             ? config_.fixIntervalS
             : config_.fixIntervalS * kDegradedFixStretch;
}

double FleetManager::effectiveCheckpointIntervalS() const {
  switch (shedLevel_) {
    case ShedLevel::kNone: return config_.checkpointIntervalS;
    case ShedLevel::kDegraded:
      return config_.checkpointIntervalS * kDegradedCheckpointStretch;
    case ShedLevel::kCritical:
      return config_.checkpointIntervalS * kDegradedCheckpointStretch * 2.0;
  }
  return config_.checkpointIntervalS;
}

namespace {
/// One hysteretic ladder step, shared by the work and memory axes.
ShedLevel stepShedLevel(ShedLevel level, double pressure, double degraded,
                        double critical, double hysteresis) {
  switch (level) {
    case ShedLevel::kNone:
      if (pressure > critical) return ShedLevel::kCritical;
      if (pressure > degraded) return ShedLevel::kDegraded;
      break;
    case ShedLevel::kDegraded:
      if (pressure > critical) return ShedLevel::kCritical;
      if (pressure < degraded - hysteresis) return ShedLevel::kNone;
      break;
    case ShedLevel::kCritical:
      if (pressure < critical - hysteresis) {
        return pressure > degraded ? ShedLevel::kDegraded : ShedLevel::kNone;
      }
      break;
  }
  return level;
}
}  // namespace

void FleetManager::updateShedLevel() {
  double pressure = 0.0;
  double memPressure = 0.0;
  for (const auto& shard : shards_) {
    pressure = std::max(pressure, shard->pressureEma);
    memPressure = std::max(memPressure, shard->memArena.pressure());
  }
  workShedLevel_ =
      stepShedLevel(workShedLevel_, pressure, kShedDegradedPressure,
                    kShedCriticalPressure, kShedHysteresis);
  memShedLevel_ =
      stepShedLevel(memShedLevel_, memPressure, kMemDegradedPressure,
                    kMemCriticalPressure, kMemShedHysteresis);
  // Either axis can push the fleet into degradation; both must clear for
  // it to recover.  The combined level is what stretches cadences.
  shedLevel_ = std::max(workShedLevel_, memShedLevel_);
  obs::set(obs_.shedLevel, static_cast<double>(shedLevel_));
  obs::set(obs_.memShedLevel, static_cast<double>(memShedLevel_));
  obs::set(obs_.memPressure, memPressure);
}

void FleetManager::tick(double nowS) {
  updateShedLevel();
  if (shedLevel_ == ShedLevel::kDegraded) ++shedDegradedTicks_;
  if (shedLevel_ == ShedLevel::kCritical) ++shedCriticalTicks_;

  // Grant checkpoint writes before the (possibly parallel) shard phase so
  // the per-tick fan-out bound is decided in one place.
  size_t grants = 0;
  const bool persistence =
      !config_.checkpointDir.empty() && config_.checkpointIntervalS > 0.0;
  if (persistence) {
    const double interval = effectiveCheckpointIntervalS();
    for (auto& shard : shards_) {
      shard->checkpointGranted = false;
      if (shard->nextCheckpointS < 0.0) {
        // Stagger first deadlines across shards so steady state never has
        // two shards due on the same tick to begin with.
        shard->nextCheckpointS =
            nowS + interval * static_cast<double>(shard->index + 1) /
                       static_cast<double>(shards_.size());
      }
      if (grants < config_.maxCheckpointWritesPerTick &&
          nowS >= shard->nextCheckpointS) {
        shard->checkpointGranted = true;
        ++grants;
      }
    }
  }

  if (pool_) {
    pool_->run(shards_.size(),
               [this, nowS](size_t k) { processShard(*shards_[k], nowS); });
  } else {
    for (auto& shard : shards_) processShard(*shard, nowS);
  }

  // Deterministic post-phase: drain fix events in shard order.
  for (auto& shard : shards_) {
    if (config_.onFix) {
      for (const FleetFixEvent& ev : shard->pendingFix) config_.onFix(ev);
    }
    shard->pendingFix.clear();
  }

  if (memAccounting_) {
    uint64_t used = 0;
    uint64_t budget = 0;
    for (const auto& shard : shards_) {
      used += shard->memArena.usedBytes();
      budget += shard->memArena.budgetBytes();
    }
    obs::set(obs_.memUsedBytes, static_cast<double>(used));
    obs::set(obs_.memBudgetBytes, static_cast<double>(budget));
  }
}

void FleetManager::processShard(Shard& shard, double nowS) {
  const size_t n = shard.members.size();
  if (n == 0) return;

  // ~50% headroom over the healthy steady state, so storms (connects at 4
  // units, floods by the KiB) are what push a shard into deferral and
  // shedding.
  const double budget = 3.0 * static_cast<double>(n) + 8.0;
  double spent = 0.0;
  size_t visited = 0;
  while (visited < n && spent < budget) {
    Member& member = *shard.members[(shard.cursor + visited) % n];
    try {
      spent += processMember(shard, member, nowS);
    } catch (const std::bad_alloc&) {
      // The worker boundary: an allocation failure inside one session's
      // processing quarantines that session; it must never cross into the
      // shard loop as a throw.
      ++shard.counters.badAllocCaught;
      obs::add(obs_.badAllocCaught);
      memEject(shard, member, nowS);
      spent += 1.0;
    }
    ++visited;
  }
  const size_t deferred = n - visited;
  shard.cursor = (shard.cursor + visited) % n;
  shard.counters.sessionsDeferred += deferred;
  obs::add(obs_.sessionsDeferred, deferred);
  shard.counters.workUnitsSpent += spent;

  // Demand = what we spent plus a floor estimate (one unit) for every
  // session we could not even visit.
  const double demand = spent + static_cast<double>(deferred);
  const double instant = demand / budget;
  shard.pressureEma = 0.8 * shard.pressureEma + 0.2 * instant;

  if (memAccounting_) shedShardMemory(shard, nowS);

  if (shard.checkpointGranted) {
    writeShardCheckpoint(shard, nowS);
    shard.nextCheckpointS = nowS + effectiveCheckpointIntervalS();
    shard.checkpointGranted = false;
  }

  obs::set(shard.sessionsGauge, static_cast<double>(n));
  obs::set(shard.quarantinedGauge,
           static_cast<double>(shard.quarantinedCount));
  obs::set(shard.pressureGauge, shard.pressureEma);
  if (memAccounting_) {
    obs::set(shard.memBytesGauge,
             static_cast<double>(shard.memArena.usedBytes()));
    obs::set(shard.memPressureGauge, shard.memArena.pressure());
  }
}

double FleetManager::processMember(Shard& shard, Member& member,
                                   double nowS) {
  if (member.quarantined) {
    const bool inWindow = member.probeEndS > nowS;
    if (!inWindow) {
      if (nowS < member.nextProbeS) return 0.0;  // parked, zero cost
      member.probeEndS = nowS + config_.quarantine.probeWindowS;
      ++shard.counters.probes;
      obs::add(obs_.probes);
    }
    const double cost = tickSupervisor(shard, member, nowS);
    if (member.supervisor->session(0).state() == SessionState::kStreaming) {
      readmit(shard, member, nowS);
    } else if (nowS >= member.probeEndS) {
      // Probe missed: escalate and park until the next rung.
      member.probeIntervalS =
          std::min(member.probeIntervalS * kProbeMultiplier, kProbeMaxS);
      member.nextProbeS = nowS + member.probeIntervalS;
      member.probeEndS = -1.0;
    }
    return cost;
  }

  double cost = tickSupervisor(shard, member, nowS);
  if (!member.quarantined) {  // tickSupervisor may have ejected it
    cost += maybeFix(shard, member, nowS);
  }
  return cost;
}

double FleetManager::tickSupervisor(Shard& shard, Member& member,
                                    double nowS) {
  member.supervisor->tick(nowS);

  auto delta = [](uint64_t current, uint64_t& watermark) {
    const uint64_t d = current >= watermark ? current - watermark : current;
    watermark = current;
    return d;
  };
  const SessionStats& ss = member.supervisor->session(0).stats();
  const uint64_t attempts = delta(ss.connectAttempts, member.lastAttempts);
  const uint64_t failures = delta(ss.connectFailures, member.lastFailures);
  const uint64_t disconnects = delta(ss.disconnects, member.lastDisconnects);
  const uint64_t bytes = delta(ss.bytesReceived, member.lastBytes);
  const uint64_t restarts = delta(member.supervisor->stats().sessionsRestarted,
                                  member.lastRestarts);

  const uint64_t flaps = failures + disconnects + restarts;
  if (flaps > 0 && !member.quarantined) {
    member.flapEventsTotal += flaps;
    for (uint64_t i = 0; i < flaps; ++i) member.flapTimes.push_back(nowS);
    const double cutoff = nowS - kFlapWindowS;
    size_t keepFrom = 0;
    while (keepFrom < member.flapTimes.size() &&
           member.flapTimes[keepFrom] < cutoff) {
      ++keepFrom;
    }
    member.flapTimes.erase(member.flapTimes.begin(),
                           member.flapTimes.begin() +
                               static_cast<std::ptrdiff_t>(keepFrom));
    if (member.flapTimes.size() >= kFlapThreshold) {
      eject(shard, member, nowS);
    }
  } else if (flaps > 0) {
    member.flapEventsTotal += flaps;
  }

  if (memAccounting_) accountMemory(shard, member, nowS);

  return 1.0 + 4.0 * static_cast<double>(attempts) +
         static_cast<double>(bytes) / 1024.0;
}

void FleetManager::accountMemory(Shard& shard, Member& member, double nowS) {
  const uint64_t footprint = member.supervisor->memoryFootprintBytes();
  if (footprint <= member.memBytes) {
    shard.memArena.release(member.memBytes - footprint);
    member.memBytes = footprint;
    return;
  }
  if (shard.memArena.tryReserve(footprint - member.memBytes)) {
    member.memBytes = footprint;
    return;
  }
  ++shard.counters.memDenied;
  obs::add(obs_.memDenied);
  // First rung: trim the session (2x snapshot decimation -- degraded
  // sampling density, never lost arc coverage) and retry the reservation.
  member.supervisor->trimMemory();
  ++shard.counters.memTrims;
  obs::add(obs_.memTrims);
  const uint64_t trimmed = member.supervisor->memoryFootprintBytes();
  if (trimmed <= member.memBytes) {
    shard.memArena.release(member.memBytes - trimmed);
    member.memBytes = trimmed;
    return;
  }
  if (shard.memArena.tryReserve(trimmed - member.memBytes)) {
    member.memBytes = trimmed;
    return;
  }
  // Last rung: the session cannot be made to fit; isolate it instead of
  // letting it push the shard (and its neighbors) over budget.
  memEject(shard, member, nowS);
}

void FleetManager::memEject(Shard& shard, Member& member, double nowS) {
  // Hard trim: repeated decimation until the footprint stops shrinking,
  // then settle the ledger so the shard gets its headroom back now.
  for (int i = 0; i < 4; ++i) {
    const uint64_t before = member.supervisor->memoryFootprintBytes();
    member.supervisor->trimMemory();
    if (member.supervisor->memoryFootprintBytes() >= before) break;
  }
  const uint64_t footprint = member.supervisor->memoryFootprintBytes();
  if (footprint < member.memBytes) {
    shard.memArena.release(member.memBytes - footprint);
    member.memBytes = footprint;
  }
  ++shard.counters.memEjections;
  obs::add(obs_.memEjections);
  obs::record(config_.journal, nowS, obs::Severity::kWarn,
              "session quarantined under memory pressure",
              {{"session", member.name},
               {"shard", std::to_string(shard.index)},
               {"footprint_bytes", std::to_string(footprint)}});
  if (!member.quarantined) eject(shard, member, nowS);
}

void FleetManager::shedShardMemory(Shard& shard, double nowS) {
  const double pressure = shard.memArena.pressure();
  if (pressure <= kMemDegradedPressure) return;
  // Shard-local response, largest footprint first: at degraded pressure a
  // trim usually buys the headroom back; past critical the biggest member
  // is quarantined outright.  One victim per tick keeps the response
  // proportional -- pressure that persists escalates tick by tick.
  Member* victim = nullptr;
  for (auto& member : shard.members) {
    if (member->quarantined) continue;
    if (!victim || member->memBytes > victim->memBytes) victim = member.get();
  }
  if (!victim || victim->memBytes == 0) return;
  if (pressure > kMemCriticalPressure) {
    memEject(shard, *victim, nowS);
    return;
  }
  victim->supervisor->trimMemory();
  ++shard.counters.memTrims;
  obs::add(obs_.memTrims);
  const uint64_t trimmed = victim->supervisor->memoryFootprintBytes();
  if (trimmed < victim->memBytes) {
    shard.memArena.release(victim->memBytes - trimmed);
    victim->memBytes = trimmed;
  }
}

double FleetManager::maybeFix(Shard& shard, Member& member, double nowS) {
  if (member.fixDueS < 0.0) {
    // First tick anchors the stagger: spread sessions across the interval
    // so fixes don't all land on the same tick.  Prime modulus keeps the
    // phases off any rational tick grid.
    const double frac = static_cast<double>(member.indexInShard % 61) / 61.0;
    member.fixDueS = nowS + config_.fixIntervalS * (0.25 + frac);
    return 0.0;
  }
  if (nowS < member.fixDueS) return 0.0;

  if (shedLevel_ == ShedLevel::kCritical && member.hasFix) {
    // Critical shedding: a session that already holds a fix keeps it;
    // recomputation is the first work to go.
    ++shard.counters.fixesSkippedShed;
    obs::add(obs_.fixesSkippedShed);
    member.fixDueS = nowS + effectiveFixIntervalS();
    return 0.0;
  }

  const double dueS = member.fixDueS;
  const auto result = member.supervisor->locateAndRecover2D(nowS);
  FleetFixEvent ev;
  ev.name = member.name;
  ev.shard = shard.index;
  ev.dueS = dueS;
  ev.nowS = nowS;
  ev.ok = result.hasValue();
  shard.pendingFix.push_back(std::move(ev));
  // Reschedule from the DUE time, not the service time: each session keeps
  // its stagger phase (off the tick grid), so servicedAt - dueAt measures
  // real scheduling delay instead of collapsing to zero once every due time
  // has been re-anchored onto a tick boundary.
  if (result.hasValue()) {
    member.hasFix = true;
    ++member.fixes;
    ++shard.counters.fixesComputed;
    obs::add(obs_.fixesComputed);
    const double interval = effectiveFixIntervalS();
    member.fixDueS = dueS + interval;
    while (member.fixDueS <= nowS) member.fixDueS += interval;
  } else {
    ++shard.counters.fixesFailed;
    member.fixDueS = dueS + kFixRetryS;
    while (member.fixDueS <= nowS) member.fixDueS += kFixRetryS;
  }
  return 24.0;  // a fix recomputation is the priciest unit of work
}

void FleetManager::eject(Shard& shard, Member& member, double nowS) {
  member.quarantined = true;
  member.flapTimes.clear();
  member.probeIntervalS = config_.quarantine.probeBaseS;
  member.nextProbeS = nowS + member.probeIntervalS;
  member.probeEndS = -1.0;
  ++shard.counters.ejections;
  ++shard.quarantinedCount;
  obs::add(obs_.ejections);
  obs::record(config_.journal, nowS, obs::Severity::kWarn,
              "session ejected to quarantine",
              {{"session", member.name},
               {"shard", std::to_string(shard.index)}});
}

void FleetManager::readmit(Shard& shard, Member& member, double nowS) {
  member.quarantined = false;
  member.flapTimes.clear();
  member.probeEndS = -1.0;
  member.fixDueS = nowS + kFixRetryS;  // it has catching up to do
  ++shard.counters.readmissions;
  if (shard.quarantinedCount > 0) --shard.quarantinedCount;
  obs::add(obs_.readmissions);
  obs::record(config_.journal, nowS, obs::Severity::kInfo,
              "session readmitted from quarantine",
              {{"session", member.name},
               {"shard", std::to_string(shard.index)}});
}

// ---------------------------------------------------------------------------
// Batched shard checkpoints
//
// Payload layout (wrapped in the standard CheckpointStore CRC frame):
//   fleet-shard v1
//   shard <k>
//   sessions <n>
//   session <nameLen> <payloadLen>\n<name bytes><payload bytes>
//   ... repeated n times

std::string FleetManager::shardCheckpointPath(size_t shardIndex) const {
  return config_.checkpointDir + "/fleet_shard" + std::to_string(shardIndex) +
         ".ckpt";
}

void FleetManager::writeShardCheckpoint(Shard& shard, double nowS) {
  // Every member's text is written straight into the payload, which is
  // sized once for all of them; a member's "session <name-len> <text-len>"
  // line goes in front of its name and text once the text's length is
  // known.
  std::vector<core::CalibrationCheckpoint> checkpoints;
  checkpoints.reserve(shard.members.size());
  constexpr size_t kLineBound = 64;  // the shard header's lines, a session's
  size_t bound = 3 * kLineBound;
  for (const auto& member : shard.members) {
    checkpoints.push_back(member->supervisor->makeCheckpoint(nowS));
    bound += kLineBound + member->name.size() +
             core::checkpointSizeBound(checkpoints.back());
  }
  std::string payload;
  payload.reserve(bound);
  payload += "fleet-shard v1\nshard ";
  payload += std::to_string(shard.index);
  payload += "\nsessions ";
  payload += std::to_string(shard.members.size());
  payload += '\n';
  for (size_t k = 0; k < checkpoints.size(); ++k) {
    const std::string& name = shard.members[k]->name;
    const size_t start = payload.size();
    payload += name;
    core::appendCheckpoint(payload, checkpoints[k]);
    const size_t textSize = payload.size() - start - name.size();
    payload.insert(start, "session " + std::to_string(name.size()) + ' ' +
                              std::to_string(textSize) + '\n');
  }
  checkpoints.clear();
  const std::string framed = CheckpointStore::frame(std::move(payload));
  // The framed image is the checkpoint path's allocation spike; reserve it
  // before writing and *refuse the save* on denial -- a skipped checkpoint
  // costs recovery freshness, an OOM mid-write could cost the tick.  The
  // next granted deadline retries after the pressure clears.
  if (memAccounting_ && !shard.memArena.tryReserve(framed.size())) {
    ++shard.counters.memDenied;
    obs::add(obs_.memDenied);
    ++shard.counters.checkpointFailures;
    obs::add(obs_.checkpointFailures);
    obs::record(config_.journal, nowS, obs::Severity::kWarn,
                "fleet shard checkpoint skipped under memory pressure",
                {{"shard", std::to_string(shard.index)},
                 {"bytes", std::to_string(framed.size())}});
    return;
  }
  try {
    core::writeFileDurable(core::resolveIo(config_.io),
                           shardCheckpointPath(shard.index), framed);
    ++shard.counters.checkpointWrites;
    obs::add(obs_.checkpointWrites);
  } catch (const std::exception& e) {
    ++shard.counters.checkpointFailures;  // disk trouble must not kill ticks
    obs::add(obs_.checkpointFailures);
    obs::record(config_.journal, nowS, obs::Severity::kError,
                "fleet shard checkpoint failed",
                {{"shard", std::to_string(shard.index)},
                 {"error", e.what()}});
  }
  if (memAccounting_) shard.memArena.release(framed.size());
}

namespace {

/// One declared length of a "session <nameLen> <sliceLen>" line, read off
/// the front of `fields` after any blanks; whatever follows the last
/// length is ignored.
bool readLength(std::string_view& fields, size_t& value) {
  while (!fields.empty() &&
         std::isspace(static_cast<unsigned char>(fields.front()))) {
    fields.remove_prefix(1);
  }
  const auto [ptr, ec] =
      std::from_chars(fields.data(), fields.data() + fields.size(), value);
  if (ec != std::errc()) return false;
  fields.remove_prefix(static_cast<size_t>(ptr - fields.data()));
  return true;
}

}  // namespace

size_t FleetManager::restore() {
  size_t restored = 0;
  for (auto& shard : shards_) {
    std::string raw;
    if (!core::resolveIo(config_.io)
             .readFile(shardCheckpointPath(shard->index), raw)
             .ok()) {
      continue;  // fresh start for this shard
    }
    const core::Result<std::string> payload = CheckpointStore::unframe(raw);
    if (!payload) {
      ++shard->counters.checkpointFailures;
      obs::add(obs_.checkpointFailures);
      obs::record(config_.journal, 0.0, obs::Severity::kWarn,
                  "fleet shard checkpoint discarded",
                  {{"shard", std::to_string(shard->index)},
                   {"reason", payload.error().message}});
      continue;
    }
    std::string_view rest = *payload;
    auto readLine = [&rest](std::string_view& line) {
      const size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) return false;
      line = rest.substr(0, nl);
      rest.remove_prefix(nl + 1);
      return true;
    };
    std::string_view line;
    if (!readLine(line) || line != "fleet-shard v1") continue;
    if (!readLine(line) || !line.starts_with("shard ")) continue;
    if (!readLine(line) || !line.starts_with("sessions ")) continue;
    size_t count = 0;
    try {
      count = static_cast<size_t>(std::stoull(std::string(line.substr(9))));
    } catch (const std::exception&) {
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      if (!readLine(line) || !line.starts_with("session ")) break;
      line.remove_prefix(8);
      size_t nameLen = 0;
      size_t sliceLen = 0;
      if (!readLength(line, nameLen) || !readLength(line, sliceLen)) break;
      // Compared with the bytes left one at a time: a sum of declared
      // lengths can wrap around.
      if (nameLen > rest.size() || sliceLen > rest.size() - nameLen) break;
      const std::string name(rest.substr(0, nameLen));
      const std::string_view slice = rest.substr(nameLen, sliceLen);
      rest.remove_prefix(nameLen + sliceLen);
      const auto it = byName_.find(name);
      if (it == byName_.end()) continue;  // session no longer registered
      try {
        it->second->supervisor->restoreFrom(core::checkpointFromString(slice));
        it->second->hasFix = false;  // recompute from restored state
        ++restored;
      } catch (const std::exception& e) {
        ++shard->counters.checkpointFailures;
        obs::add(obs_.checkpointFailures);
        obs::record(config_.journal, 0.0, obs::Severity::kWarn,
                    "fleet member checkpoint discarded",
                    {{"session", name},
                     {"shard", std::to_string(shard->index)},
                     {"reason", e.what()}});
      }
    }
  }
  return restored;
}

void FleetManager::shutdown(double nowS) {
  for (auto& shard : shards_) {
    for (auto& member : shard->members) {
      member->supervisor->shutdown(nowS);
    }
    if (!config_.checkpointDir.empty()) {
      writeShardCheckpoint(*shard, nowS);
    }
  }
}

// ---------------------------------------------------------------------------
// Introspection

FleetStats FleetManager::stats() const {
  FleetStats s;
  s.admitted = admitted_;
  s.admissionRejected = admissionRejected_;
  s.shedDegradedTicks = shedDegradedTicks_;
  s.shedCriticalTicks = shedCriticalTicks_;
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard->counters;
    s.ejections += c.ejections;
    s.readmissions += c.readmissions;
    s.probes += c.probes;
    s.budgetDenied += c.budgetDenied;
    s.sessionsDeferred += c.sessionsDeferred;
    s.fixesComputed += c.fixesComputed;
    s.fixesFailed += c.fixesFailed;
    s.fixesSkippedShed += c.fixesSkippedShed;
    s.checkpointWrites += c.checkpointWrites;
    s.checkpointFailures += c.checkpointFailures;
    s.memDeniedReserves += c.memDenied;
    s.memTrims += c.memTrims;
    s.memEjections += c.memEjections;
    s.badAllocCaught += c.badAllocCaught;
    s.memUsedBytes += shard->memArena.usedBytes();
    s.memPeakBytes += shard->memArena.peakBytes();
    s.workUnitsSpent += c.workUnitsSpent;
    s.quarantinedNow += shard->quarantinedCount;
  }
  return s;
}

std::vector<FleetManager::SessionView> FleetManager::sessions() const {
  std::vector<SessionView> views;
  views.reserve(sessionCount());
  for (const auto& shard : shards_) {
    for (const auto& member : shard->members) {
      SessionView v;
      v.name = member->name;
      v.shard = shard->index;
      v.state = member->supervisor->session(0).state();
      v.quarantined = member->quarantined;
      v.hasFix = member->hasFix;
      v.fixes = member->fixes;
      v.flapEvents = member->flapEventsTotal;
      if (const track::Tracker* tracker = member->supervisor->tracker();
          tracker && tracker->hasEstimate()) {
        const track::TrackEstimate& est = tracker->lastEstimate();
        v.hasTrack = true;
        v.trackState = est.state;
        v.trackPosition = est.position;
        v.trackVelocity = est.velocity;
      }
      views.push_back(std::move(v));
    }
  }
  return views;
}

const Supervisor* FleetManager::supervisor(const std::string& name) const {
  const auto it = byName_.find(name);
  return it == byName_.end() ? nullptr : it->second->supervisor.get();
}

}  // namespace tagspin::runtime
