#include "eval/oom.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>

#include "capture/digest.hpp"
#include "capture/replay.hpp"
#include "capture/writer.hpp"
#include "eval/runner.hpp"
#include "obs/export.hpp"
#include "rfid/llrp.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet.hpp"
#include "sim/fleet_scenario.hpp"
#include "sim/io_sim.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"
#include "track/tracker.hpp"

namespace tagspin::eval {
namespace {

constexpr const char* kCheckpointDir = "ckpt";
constexpr const char* kCapturePath = "oom.tspc";

// Fixed sizes (see OomExploreConfig).  The fleet runs kFleetRevolutions
// rig revolutions plus kSettleS, then kRecoverS of ticks after the
// injector is disarmed -- the window the recovery invariants are measured
// over.
constexpr double kFleetRevolutions = 1.0;
constexpr double kTickS = 0.1;
constexpr double kSettleS = 3.0;
constexpr double kRecoverS = 2.0;
constexpr size_t kBrokenCacheOps = 64;
constexpr double kPressureBudgetFactor = 1.25;

constexpr sim::MemFaultKind kMemKinds[] = {
    sim::MemFaultKind::kDeny, sim::MemFaultKind::kBurst,
    sim::MemFaultKind::kCliff, sim::MemFaultKind::kPoison};

std::string sessionName(size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "m%04zu", index);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads.  One instance = one execution: run() drives the real
// components against the injected memory environment -- constructing and
// destroying everything inside, so the explorer's post-run leak check
// (env.usedBytes() == 0) covers teardown too.  Each workload disarms the
// injector and clears pressure before its recovery phase, the window the
// "full recovery after pressure clears" invariants are measured over.

class MemWorkloadRun {
 public:
  virtual ~MemWorkloadRun() = default;
  virtual void run(sim::SimMemEnv& env) = 0;
  /// Workload-specific invariants on the completed run; `env` is the
  /// post-teardown environment.
  virtual std::optional<std::string> check(
      const sim::SimMemEnv& env) const = 0;
  /// Deterministic digest of the run's outcome (the parity gate compares
  /// these bit-for-bit between accounting-off and accounting-on runs).
  virtual uint64_t digest() const { return 0; }
};

using MemWorkloadFactory = std::function<std::unique_ptr<MemWorkloadRun>()>;

// ---------------------------------------------------------------------------
// Fleet fixture: interrogate + encode exactly once; every fleet run in
// every arm shares the stream and deployment (the runs differ only in
// injection, outage scripts, and budgets).

struct FleetFixture {
  std::shared_ptr<const sim::SharedStream> stream;
  core::DeploymentFile deployment;
  double spanS = 0.0;
  double endS = 0.0;
  sim::FleetScenarioConfig storm;
};

FleetFixture makeFleetFixture(const OomExploreConfig& config) {
  FleetFixture fx;

  sim::ScenarioConfig scenario;
  scenario.seed = static_cast<uint32_t>(config.seed % 1000003);
  scenario.fixedChannel = true;

  const double period = 2.0 * std::numbers::pi / scenario.rigOmegaRadPerS;
  fx.spanS = kFleetRevolutions * period;
  fx.endS = fx.spanS + kSettleS;

  // Connect storm: most of the fleet drops at the same instant mid-span
  // and reconnects together, with a flapper tail for the quarantine ring.
  fx.storm.spanS = fx.spanS;
  fx.storm.revolutionPeriodS = period;
  fx.storm.outageFraction = 0.6;
  fx.storm.outageAtS = 0.4 * fx.spanS;
  fx.storm.outageDurationS = std::min(3.0, 0.3 * fx.spanS);
  fx.storm.flapFraction = 0.2;
  fx.storm.seed = sim::deriveSeed(config.seed, 7);

  sim::World world = sim::makeRigRowWorld(scenario, 2);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  sim::Region region;
  const geom::Vec3 truth = region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);

  fx.stream = sim::makeSharedStream(
      world, {fx.spanS, 0, sim::deriveSeed(config.seed, 2)});

  fx.deployment = deploymentOf(world);
  return fx;
}

/// Fleet template shared by the fleet-driven workloads: the fleet-scale
/// locator economy of eval/fleet, trimmed further -- this harness measures
/// memory behavior, not localization accuracy, so fixes only need to
/// succeed, cheaply.
runtime::FleetConfig baseFleetConfig() {
  runtime::FleetConfig fc;
  fc.supervisor.session.queueCapacity = 1024;
  fc.supervisor.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  fc.supervisor.maxSnapshotsPerTag = 250;
  fc.supervisor.checkpointSpectrumPoints = 0;
  fc.supervisor.locator.search.azimuthGridPoints = 144;
  fc.supervisor.locator.search.refineRounds = 3;
  fc.supervisor.locator.orientationIterations = 1;
  fc.supervisor.locator.robust.diagnostics = false;
  fc.supervisor.locator.robust.consensus = false;
  fc.fixIntervalS = 5.0;
  fc.retryBudget.tokensPerSecond = 4.0;
  fc.retryBudget.burst = 8.0;
  return fc;
}

enum class FleetMode { kSteady, kConnectStorm, kCheckpointSave };

/// The three fleet-driven workloads in one body: steady state (injection
/// lands on the per-session accounting path), connect storm (injection
/// lands while reconnect work and flap tracking churn the footprints),
/// and checkpoint save (SimIoEnv-backed shard checkpoints whose framed
/// image is reserved before every write).
class FleetMemWorkload final : public MemWorkloadRun {
 public:
  FleetMemWorkload(const OomExploreConfig& config, const FleetFixture& fx,
                   FleetMode mode, bool attachMem,
                   uint64_t shardBudgetBytes = 0)
      : config_(config),
        fx_(fx),
        mode_(mode),
        attachMem_(attachMem),
        shardBudget_(shardBudgetBytes) {}

  void run(sim::SimMemEnv& env) override {
    runtime::FleetConfig fc = baseFleetConfig();
    fc.shards = config_.fleetShards;
    fc.maxSessions = config_.fleetSessions;
    fc.workerThreads = 0;  // deterministic reservation indices
    if (attachMem_) {
      fc.mem = &env;
      fc.memBudgetPerShardBytes = shardBudget_;
    }
    if (mode_ == FleetMode::kCheckpointSave) {
      fc.checkpointDir = kCheckpointDir;
      fc.io = &io_;
      fc.checkpointIntervalS = 2.0;
      fc.maxCheckpointWritesPerTick = 2;
    }

    capture::Fnv1a digest;
    fc.onFix = [&digest](const runtime::FleetFixEvent& ev) {
      digest.bytes(ev.name.data(), ev.name.size());
      digest.u64(ev.shard);
      digest.f64(ev.dueS);
      digest.f64(ev.nowS);
      digest.u64(ev.ok ? 1 : 0);
    };

    runtime::FleetManager fleet(fc, fx_.deployment);
    for (size_t i = 0; i < config_.fleetSessions; ++i) {
      sim::FlakyTransportConfig tc;
      tc.connectDelayS = 0.05;
      tc.seed = sim::deriveSeed(config_.seed, 100 + i);
      if (mode_ == FleetMode::kConnectStorm) {
        tc.events =
            sim::fleetOutageScript(fx_.storm, i, config_.fleetSessions);
      }
      fleet.registerSession(sessionName(i),
                            [stream = fx_.stream, tc] {
                              return std::make_unique<sim::FlakyTransport>(
                                  stream, tc);
                            });
    }
    registered_ = fleet.sessionCount();

    for (double t = 0.0; t <= fx_.endS + 1e-9; t += kTickS) {
      fleet.tick(t);
    }

    // Pressure clears: disarm the injector and run the recovery window.
    env.setFaults({});
    env.clearPressure();
    denialsAtClear_ = env.denials();
    const double recoverEndS = fx_.endS + kRecoverS;
    for (double t = fx_.endS + kTickS; t <= recoverEndS + 1e-9; t += kTickS) {
      fleet.tick(t);
    }
    fleet.shutdown(recoverEndS);
    denialsAfterRecover_ = env.denials();

    stats_ = fleet.stats();
    const auto views = fleet.sessions();
    sessionsAtEnd_ = views.size();
    for (const auto& v : views) {
      if (v.hasFix) ++withFix_;
      digest.bytes(v.name.data(), v.name.size());
      digest.u64(v.fixes);
      digest.u64(v.hasFix ? 1 : 0);
    }
    digest_ = digest.value();

    if (mode_ == FleetMode::kCheckpointSave) {
      // shutdown() just wrote a final checkpoint for every shard with the
      // injector disarmed: every file must exist and unframe cleanly.
      finalCheckpointsOk_ = true;
      const sim::DiskImage image = io_.liveImage();
      for (size_t k = 0; k < config_.fleetShards; ++k) {
        const std::string path = std::string(kCheckpointDir) +
                                 "/fleet_shard" + std::to_string(k) +
                                 ".ckpt";
        const auto it = image.find(path);
        if (it == image.end() ||
            !runtime::CheckpointStore::unframe(it->second).hasValue()) {
          finalCheckpointsOk_ = false;
        }
      }
    }
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (registered_ != config_.fleetSessions) {
      return "only " + std::to_string(registered_) + " of " +
             std::to_string(config_.fleetSessions) + " sessions admitted";
    }
    if (sessionsAtEnd_ != registered_) {
      return "sessions lost: " + std::to_string(sessionsAtEnd_) + " of " +
             std::to_string(registered_) + " remain registered";
    }
    if (stats_.badAllocCaught != 0) {
      return "bad_alloc reached the fleet worker boundary " +
             std::to_string(stats_.badAllocCaught) + " times";
    }
    // Isolation: every memory quarantine must be attributable to an
    // injected denial -- pressure on one session can never cascade.
    if (stats_.memEjections > env.denials()) {
      return std::to_string(stats_.memEjections) +
             " sessions quarantined for memory with only " +
             std::to_string(env.denials()) + " denials injected";
    }
    if (denialsAfterRecover_ != denialsAtClear_) {
      return "reservations denied after pressure cleared";
    }
    if (mode_ == FleetMode::kCheckpointSave && !finalCheckpointsOk_) {
      return "final shard checkpoints missing or corrupt after recovery";
    }
    // A fault-free (or never-reached-fault) run must behave like the
    // baseline: every session ends holding a fix.
    if (env.denials() == 0 && withFix_ != registered_) {
      return "fault-free run left " +
             std::to_string(registered_ - withFix_) +
             " sessions without a fix";
    }
    return std::nullopt;
  }

  uint64_t digest() const override { return digest_; }

  const runtime::FleetStats& stats() const { return stats_; }
  double fixRate() const {
    return registered_ ? double(withFix_) / double(registered_) : 0.0;
  }

 private:
  const OomExploreConfig& config_;
  const FleetFixture& fx_;
  FleetMode mode_;
  bool attachMem_;
  uint64_t shardBudget_;
  sim::SimIoEnv io_;

  size_t registered_ = 0;
  size_t sessionsAtEnd_ = 0;
  size_t withFix_ = 0;
  uint64_t denialsAtClear_ = 0;
  uint64_t denialsAfterRecover_ = 0;
  bool finalCheckpointsOk_ = true;
  runtime::FleetStats stats_;
  uint64_t digest_ = 0;
};

// ---------------------------------------------------------------------------
// Replay fan-out: N sessions build budgeted replay streams from one
// capture while a budgeted CaptureWriter spills/refuses under the same
// arena.  A denial must cost exactly one stream (kOutOfMemory Result) or
// one report (refusal), never the process.

capture::TimedStream syntheticStream(size_t n) {
  capture::TimedStream out;
  for (size_t i = 0; i < n; ++i) {
    capture::TimedReport tr;
    tr.report.epc = rfid::Epc::forSimulatedTag(static_cast<uint32_t>(i % 3));
    tr.report.timestampS = 0.0025 * static_cast<double>(i);
    tr.report.phaseRad = static_cast<double>((i * 37) % 4096) / 4096.0 *
                         2.0 * std::numbers::pi;
    tr.report.rssiDbm = -60.0 - static_cast<double>(i % 20);
    tr.report.channelIndex = static_cast<int>(i % 16);
    tr.report.frequencyHz = 902.75e6 + 0.5e6 * static_cast<double>(i % 16);
    tr.report.antennaPort = static_cast<int>(i % 4);
    tr.deliveryS = tr.report.timestampS + 0.0008;
    out.push_back(tr);
  }
  return out;
}

class ReplayFanoutWorkload final : public MemWorkloadRun {
 public:
  explicit ReplayFanoutWorkload(const OomExploreConfig& config)
      : config_(config), stream_(syntheticStream(config.replayReports)) {}

  void run(sim::SimMemEnv& env) override {
    core::MemArena arena(&env, 0, "replay.fanout");
    {
      std::vector<std::shared_ptr<const capture::ReplayStream>> streams;
      for (size_t s = 0; s < config_.replaySessions; ++s) {
        auto r = capture::makeReplayStreamBudgeted(stream_, &arena);
        if (r.hasValue()) {
          ++built_;
          if ((*r)->wire.size() !=
              stream_.size() * rfid::llrp::kMessageSize) {
            streamBad_ = true;
          }
          streams.push_back(*r);
        } else {
          ++refused_;
          if (r.error().code != core::ErrorCode::kOutOfMemory) {
            wrongError_ = true;
          }
        }
      }

      // Budgeted capture writer on the same arena: spill-then-refuse.
      sim::SimIoEnv io;
      capture::CaptureWriterConfig wc;
      wc.chunkReports = 8;
      wc.fsyncEveryChunks = 2;
      wc.io = &io;
      wc.arena = &arena;
      capture::CaptureWriter writer(kCapturePath, wc);
      for (const capture::TimedReport& tr : stream_) {
        writer.append(tr.report, tr.deliveryS);
      }
      writer.close();
      writerStats_ = writer.stats();
    }
    // Recovery: with the injector disarmed and pressure cleared, a fresh
    // stream must build (and release on destruction).
    env.setFaults({});
    env.clearPressure();
    {
      auto r = capture::makeReplayStreamBudgeted(stream_, &arena);
      recovered_ = r.hasValue();
    }
    arenaLeakBytes_ = arena.usedBytes();
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (built_ + refused_ != config_.replaySessions) {
      return "stream accounting lost a session";
    }
    if (wrongError_) {
      return "a refused stream reported an error other than out_of_memory";
    }
    if (streamBad_) {
      return "a granted stream has a truncated wire image";
    }
    // Isolation: each refusal costs exactly one stream and requires at
    // least one denial.
    if (refused_ > env.denials()) {
      return std::to_string(refused_) + " streams refused with only " +
             std::to_string(env.denials()) + " denials injected";
    }
    if (env.denials() == 0 && refused_ + writerStats_.reportsRefused > 0) {
      return "refusals with no denial injected";
    }
    if (writerStats_.reportsWritten + writerStats_.reportsRefused !=
        stream_.size()) {
      return "writer lost reports: " +
             std::to_string(writerStats_.reportsWritten) + " written + " +
             std::to_string(writerStats_.reportsRefused) + " refused != " +
             std::to_string(stream_.size());
    }
    if (!recovered_) {
      return "stream refused after pressure cleared";
    }
    if (arenaLeakBytes_ != 0) {
      return "arena retained " + std::to_string(arenaLeakBytes_) +
             " bytes after every stream and the writer were torn down";
    }
    return std::nullopt;
  }

 private:
  const OomExploreConfig& config_;
  capture::TimedStream stream_;

  size_t built_ = 0;
  size_t refused_ = 0;
  bool wrongError_ = false;
  bool streamBad_ = false;
  bool recovered_ = false;
  uint64_t arenaLeakBytes_ = 0;
  capture::CaptureWriterStats writerStats_;
};

// ---------------------------------------------------------------------------
// Tracker ghost burst: a confirmed track rides a stream of fixes salted
// with multipath ghosts (gate-rejected) and drop-out gaps (coasting) while
// its bounded history is charged to an injected arena.  Denials may evict
// or refuse history entries -- diagnostics -- but must never move the
// track, drop it, or lose the pinned anchor.

class TrackerGhostBurstWorkload final : public MemWorkloadRun {
 public:
  explicit TrackerGhostBurstWorkload(const OomExploreConfig& config)
      : config_(config) {}

  void run(sim::SimMemEnv& env) override {
    core::MemArena arena(&env, 0, "track.history");
    {
      track::TrackerConfig tc;
      tc.historyLimit = config_.trackerHistoryLimit;
      tc.historyArena = &arena;
      track::Tracker tracker(tc);

      const auto truth = [](double t) {
        return geom::Vec2{0.5 + 0.30 * t, -0.2 + 0.18 * t};
      };
      for (size_t i = 0; i < config_.trackerFixes; ++i) {
        const double t = 0.25 * static_cast<double>(i);
        if (i % 17 == 13) {
          tracker.onGap(t);  // drop-out window: the track coasts
          continue;
        }
        track::TrackMeasurement m;
        m.timeS = t;
        m.position = truth(t);
        if (i % 23 == 7) {
          // Multipath ghost: far off-track, the chi-square gate's job.
          m.position.x += 4.0;
          m.position.y -= 3.0;
        }
        tracker.onMeasurement(m);
      }
      stats_ = tracker.stats();
      state_ = tracker.state();
      hasAnchor_ = tracker.hasAnchor();
      anchorUsedMeasurement_ =
          tracker.hasAnchor() && tracker.anchor().usedMeasurement;
      historySize_ = tracker.history().size();
      memoryBytes_ = tracker.memoryBytes();

      // Recovery: pressure clears, then one more accepted fix must land a
      // history entry again.
      env.setFaults({});
      env.clearPressure();
      const size_t before = tracker.history().size();
      const uint64_t refusedBefore = tracker.stats().historyRefused;
      track::TrackMeasurement m;
      m.timeS = 0.25 * static_cast<double>(config_.trackerFixes);
      m.position = truth(m.timeS);
      tracker.onMeasurement(m);
      recovered_ = tracker.history().size() >= before &&
                   tracker.stats().historyRefused == refusedBefore;
    }
    arenaLeakBytes_ = arena.usedBytes();
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (stats_.accepted == 0) {
      return "no fix was ever accepted";
    }
    if (state_ != track::TrackState::kConfirmed &&
        state_ != track::TrackState::kCoasting) {
      return std::string("track left the confirmed/coasting envelope: ") +
             track::trackStateName(state_);
    }
    if (!hasAnchor_ || !anchorUsedMeasurement_) {
      return "the measurement-backed anchor was lost under eviction";
    }
    if (historySize_ > config_.trackerHistoryLimit) {
      return "history grew past its bound: " + std::to_string(historySize_);
    }
    if (memoryBytes_ != historySize_ * sizeof(track::TrackEstimate)) {
      return "memoryBytes() diverged from the held history";
    }
    if (stats_.historyRefused > env.denials()) {
      return std::to_string(stats_.historyRefused) +
             " entries refused with only " + std::to_string(env.denials()) +
             " denials injected";
    }
    if (env.denials() == 0 &&
        (stats_.historyRefused > 0 ||
         historySize_ + 1 < std::min<size_t>(config_.trackerHistoryLimit,
                                             config_.trackerFixes))) {
      return "fault-free run evicted or refused history";
    }
    if (!recovered_) {
      return "history entry refused after pressure cleared";
    }
    if (arenaLeakBytes_ != 0) {
      return "arena retained " + std::to_string(arenaLeakBytes_) +
             " bytes after the tracker was destroyed";
    }
    return std::nullopt;
  }

 private:
  const OomExploreConfig& config_;

  track::TrackerStats stats_;
  track::TrackState state_ = track::TrackState::kDropped;
  bool hasAnchor_ = false;
  bool anchorUsedMeasurement_ = false;
  size_t historySize_ = 0;
  uint64_t memoryBytes_ = 0;
  bool recovered_ = false;
  uint64_t arenaLeakBytes_ = 0;
};

// ---------------------------------------------------------------------------
// The planted bug: a shed cache that, on a denied reservation, "sheds" an
// entry it never admitted -- release without reserve, the accounting
// analog of a double-close.  Invisible on any fault-free run (reserves and
// releases balance exactly).  The ledgers can only see the over-release
// when the cache holds nothing -- a denial at the first reservation, or
// denials that outlast the blocks it holds -- and then the environment's
// underflow oracle fires.

void brokenShedCache(sim::SimMemEnv& env) {
  constexpr uint64_t kBlockBytes = 1024;
  core::MemArena arena(&env, 0, "broken.cache");
  for (size_t i = 0; i < kBrokenCacheOps; ++i) {
    if (!arena.tryReserve(kBlockBytes)) {
      // BUG: sheds a block that was never admitted.
      arena.release(kBlockBytes);
    }
  }
}

// ---------------------------------------------------------------------------
// The run path

/// Environment-level oracle checks every injected run must pass, plus the
/// recovery probe: with the injector disarmed and pressure cleared, a
/// reservation must succeed again.
std::optional<std::string> envOracles(sim::SimMemEnv& env) {
  if (env.underflow()) {
    return "accounting underflow: some caller released bytes it never "
           "reserved";
  }
  if (env.usedBytes() != 0) {
    return "leak: " + std::to_string(env.usedBytes()) +
           " bytes still reserved after teardown";
  }
  env.setFaults({});
  env.clearPressure();
  if (!env.tryReserve(4096)) {
    return "no recovery: a reservation was denied after pressure cleared";
  }
  env.release(4096);
  return std::nullopt;
}

/// One explored run: a fresh SimMemEnv armed with `schedule`, the
/// workload, then the environment's oracles and the workload's checks.
RunOutcome<sim::MemFault> runInjected(const std::string& name,
                                      const MemWorkloadFactory& factory,
                                      const sim::MemFaultSchedule& schedule) {
  RunOutcome<sim::MemFault> out;
  std::optional<std::string> bad;
  auto inst = factory();
  sim::SimMemEnv env;
  env.setFaults(schedule);
  try {
    inst->run(env);
  } catch (const std::exception& e) {
    bad = std::string("uncaught exception crossed the workload: ") + e.what();
  }
  out.ops = env.opCount();
  out.fired = env.denials();
  if (!bad) bad = envOracles(env);
  if (!bad) bad = inst->check(env);
  out.checks = 1;
  if (bad) {
    out.violations = 1;
    out.first = Violation<sim::MemFault>{name, -1, schedule, "", 0, *bad};
  }
  return out;
}

sim::MemFault drawMemFault(std::mt19937_64& rng, uint64_t op) {
  sim::MemFault f;
  f.opIndex = op;
  f.kind = kMemKinds[rng() % std::size(kMemKinds)];
  f.param = f.kind == sim::MemFaultKind::kBurst ? 2 + rng() % 5 : 1;
  return f;
}

// ---------------------------------------------------------------------------
// JSON

std::string memScheduleJson(const sim::MemFaultSchedule& schedule) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < schedule.size(); ++i) {
    out << (i ? ", " : "") << "{\"op\": " << schedule[i].opIndex
        << ", \"kind\": \"" << sim::memFaultKindName(schedule[i].kind)
        << "\", \"param\": " << schedule[i].param << "}";
  }
  out << ']';
  return out.str();
}

}  // namespace

OomEvalResult runOomEval(const OomExploreConfig& config) {
  OomEvalResult result;
  const FleetFixture fx = makeFleetFixture(config);

  const auto fleetF = [&config, &fx](FleetMode mode) -> MemWorkloadFactory {
    return [&config, &fx, mode] {
      return std::make_unique<FleetMemWorkload>(config, fx, mode,
                                                /*attachMem=*/true);
    };
  };
  const std::pair<const char*, MemWorkloadFactory> workloads[] = {
      {"fleet_steady", fleetF(FleetMode::kSteady)},
      {"connect_storm", fleetF(FleetMode::kConnectStorm)},
      {"replay_fanout",
       [&config] { return std::make_unique<ReplayFanoutWorkload>(config); }},
      {"tracker_ghost_burst",
       [&config] {
         return std::make_unique<TrackerGhostBurstWorkload>(config);
       }},
      {"checkpoint_save", fleetF(FleetMode::kCheckpointSave)},
  };

  // Stride-sampled single faults over the probe run's reservations, the
  // kinds cycled.
  const auto sampledFaults = [&config](uint64_t boundaries) {
    const uint64_t span = std::max<uint64_t>(boundaries, 1);
    sim::MemFaultSchedule faults;
    for (size_t p = 0; p < config.pointsPerWorkload; ++p) {
      sim::MemFault fault;
      fault.opIndex = (uint64_t(p) * span) / config.pointsPerWorkload;
      fault.kind = kMemKinds[p % std::size(kMemKinds)];
      fault.param = fault.kind == sim::MemFaultKind::kBurst ? 4 : 1;
      faults.push_back(fault);
    }
    return faults;
  };

  for (const auto& [name, factory] : workloads) {
    const ExploreStats ws = exploreWorkload(
        name,
        [&](const sim::MemFaultSchedule& schedule) {
          return runInjected(name, factory, schedule);
        },
        sampledFaults, result.violations);
    result.totalBoundaries += ws.boundaries;
    result.totalPoints += ws.points;
    result.totalViolations += ws.violations;
    result.workloads.push_back(ws);
  }

  // Arm 2: seeded multi-fault schedules against the fleet steady-state
  // path (workloads[0], the workload with the richest shedding ladder).
  {
    auto rng = sim::makeRng(sim::deriveSeed(config.seed, 0x5EA));
    const uint64_t span =
        std::max<uint64_t>(result.workloads.front().boundaries, 1);
    for (size_t r = 0; r < config.scheduleRounds; ++r) {
      const sim::MemFaultSchedule schedule =
          randomSchedule<sim::MemFault>(rng, span, drawMemFault);
      const RunOutcome<sim::MemFault> out =
          runInjected("fleet_steady/schedule", workloads[0].second, schedule);
      ++result.scheduleRuns;
      result.scheduleDenials += out.fired;
      result.scheduleViolations += out.violations;
      if (out.first) keepViolation(result.violations, *out.first);
    }
    result.totalViolations += result.scheduleViolations;
  }

  // Parity gate: the seam itself must cost nothing.  Accounting off vs a
  // fault-free SimMemEnv attached -- fix streams bit-identical.
  {
    FleetMemWorkload off(config, fx, FleetMode::kSteady,
                         /*attachMem=*/false);
    sim::SimMemEnv offEnv;
    off.run(offEnv);
    FleetMemWorkload on(config, fx, FleetMode::kSteady, /*attachMem=*/true);
    sim::SimMemEnv onEnv;
    on.run(onEnv);
    result.parityBaselineDigest = capture::digestHex(off.digest());
    result.paritySeamDigest = capture::digestHex(on.digest());
    result.parityBitIdentical = off.digest() == on.digest();
  }

  // Pressure arm: shard budgets from a probe run's per-shard peak, scaled
  // so the fleet ends around 1/factor (~80%) utilization -- inside the
  // mem-degraded band, trimming but never losing sessions.
  {
    FleetMemWorkload probe(config, fx, FleetMode::kSteady,
                           /*attachMem=*/true);
    sim::SimMemEnv probeEnv;
    probe.run(probeEnv);
    const uint64_t perShardPeak = std::max<uint64_t>(
        probe.stats().memPeakBytes / std::max<size_t>(config.fleetShards, 1),
        1);
    const uint64_t budget = uint64_t(kPressureBudgetFactor *
                                     static_cast<double>(perShardPeak));
    result.pressureShardBudgetBytes = budget;

    FleetMemWorkload pressured(config, fx, FleetMode::kSteady,
                               /*attachMem=*/true, budget);
    sim::SimMemEnv env;
    pressured.run(env);
    result.pressureFixRate = pressured.fixRate();
    result.pressureTrims = pressured.stats().memTrims;
    result.pressureEjections = pressured.stats().memEjections;
    result.pressureDeniedReserves = pressured.stats().memDeniedReserves;
    result.pressureUtilization =
        static_cast<double>(pressured.stats().memPeakBytes) /
        static_cast<double>(budget * config.fleetShards);
    result.pressureRecovered = env.usedBytes() == 0 && !env.underflow();
  }

  // Arm 3: the falsification proof.  A single deny anywhere in range makes
  // the cache over-release and the underflow oracle fire at teardown.
  {
    sim::MemFaultSchedule sweep;
    for (uint64_t k = 0; k < kBrokenCacheOps; k += kBrokenCacheOps / 16) {
      sweep.push_back({k, sim::MemFaultKind::kDeny, 1});
    }
    result.brokenCache = falsify(
        sweep, sim::makeRng(sim::deriveSeed(config.seed, 0xB0B)),
        kBrokenCacheOps, drawMemFault,
        [](const sim::MemFaultSchedule& schedule) {
          sim::SimMemEnv env;
          env.setFaults(schedule);
          brokenShedCache(env);
          return env.underflow();
        },
        [](const sim::MemFaultSchedule& shrunk) {
          std::ostringstream artifact;
          artifact << "{\"workload\": \"broken_shed_cache\", \"ops\": "
                   << kBrokenCacheOps
                   << ", \"schedule\": " << memScheduleJson(shrunk)
                   << ", \"detail\": \"accounting underflow: release without "
                      "reserve\"}";
          return artifact.str();
        });
  }

  result.pass = result.totalViolations == 0 && result.brokenCache.ok() &&
                result.parityBitIdentical &&
                result.pressureFixRate >= kPressureMinFixRate &&
                result.pressureRecovered;
  return result;
}

std::string oomJson(const OomEvalResult& result) {
  std::ostringstream out;
  out << "{\n  \"workloads\": [\n";
  for (size_t i = 0; i < result.workloads.size(); ++i) {
    const ExploreStats& w = result.workloads[i];
    out << "    {\"name\": \"" << obs::jsonEscape(w.name)
        << "\", \"boundaries\": " << w.boundaries
        << ", \"points\": " << w.points << ", \"denials\": " << w.fired
        << ", \"violations\": " << w.violations << '}'
        << (i + 1 < result.workloads.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"total_boundaries\": " << result.totalBoundaries << ",\n";
  out << "  \"total_points\": " << result.totalPoints << ",\n";
  out << "  \"total_violations\": " << result.totalViolations << ",\n";
  out << "  \"schedule_search\": {\"runs\": " << result.scheduleRuns
      << ", \"denials\": " << result.scheduleDenials
      << ", \"violations\": " << result.scheduleViolations << "},\n";
  out << "  \"parity\": {\"checked\": true, \"bit_identical\": "
      << (result.parityBitIdentical ? "true" : "false")
      << ", \"baseline_digest\": \"" << result.parityBaselineDigest
      << "\", \"seam_digest\": \"" << result.paritySeamDigest << "\"},\n";
  out << "  \"pressure\": {\"checked\": true, \"fix_rate\": "
      << result.pressureFixRate
      << ", \"utilization\": " << result.pressureUtilization
      << ", \"shard_budget_bytes\": " << result.pressureShardBudgetBytes
      << ", \"trims\": " << result.pressureTrims
      << ", \"ejections\": " << result.pressureEjections
      << ", \"denied_reserves\": " << result.pressureDeniedReserves
      << ", \"recovered\": " << (result.pressureRecovered ? "true" : "false")
      << "},\n";
  out << "  \"broken_cache\": " << result.brokenCache.json() << ",\n";
  out << "  \"violations\": [\n";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    const Violation<sim::MemFault>& v = result.violations[i];
    out << "    {\"workload\": \"" << obs::jsonEscape(v.workload)
        << "\", \"fail_at_op\": " << v.atOp
        << ", \"schedule\": " << memScheduleJson(v.schedule)
        << ", \"detail\": \"" << obs::jsonEscape(v.detail) << "\"}"
        << (i + 1 < result.violations.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"pass\": " << (result.pass ? "true" : "false") << "\n}\n";
  return out.str();
}

}  // namespace tagspin::eval
