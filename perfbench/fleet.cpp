// fleet: the serving path.  A FleetManager (inline, workerThreads = 0, at
// FleetEvalConfig::defaultFleetConfig()) runs sessions that share one
// pre-encoded 2-rig fixed-channel stream under the fig_fleet chaos script
// (20% correlated outage + 5% flappers), with shard checkpoints in
// in-memory storage.  Fix recomputation at the fleet config
// takes most of the time; scheduling, session decode and ingest the rest.
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>

#include "core/power_profile.hpp"
#include "core/quality.hpp"
#include "core/spectrum.hpp"
#include "eval/fleet.hpp"
#include "obs/metrics.hpp"
#include "mem_io.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet.hpp"
#include "sim/flaky_transport.hpp"
#include "sim/fleet_scenario.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tagspin;

constexpr size_t kSessions = 32;
constexpr size_t kShards = 4;
constexpr double kRevolutions = 3.0;
constexpr double kTickS = 0.1;
constexpr double kSettleS = 8.0;
constexpr int kSetupRepeats = 25;
// The warm-up runs the scenario's first 20 simulated seconds: every shard
// has checkpointed by then, so set-up can time a real restore.
constexpr double kWarmUpS = 20.0;
// Probe once this much tick time has accumulated.
constexpr double kProbeCadenceS = 0.5;
// Supervisor fixes are sampled on every kFixSampleTicks-th tick once the
// sessions hold a full revolution.
constexpr int kFixSampleTicks = 5;
constexpr size_t kMinOkFixes = 200;
const char* const kCheckpointDir = "fleet";

volatile double evalSink = 0.0;

std::string sessionName(size_t i) { return "s" + std::to_string(i); }

struct Scenario {
  std::shared_ptr<const sim::SharedStream> stream;
  core::DeploymentFile deployment;
  sim::FleetScenarioConfig chaos;
  double endS = 0.0;
  double periodS = 0.0;
};

// Generator: the shared stream, the deployment and the chaos script, laid
// out like the fig_fleet harness.
Scenario makeScenario(uint64_t seed) {
  Scenario sc;
  sim::ScenarioConfig world;
  world.fixedChannel = true;
  world.seed = sim::deriveSeed(seed, 1);
  sim::World w = sim::makeRigRowWorld(world, 2);
  auto rng = sim::makeRng(sim::deriveSeed(seed, 2));
  const geom::Vec3 truth = sim::Region{}.sample(rng, false);
  sim::placeReaderAntenna(w, 0, truth);
  sc.periodS = 2.0 * std::numbers::pi / world.rigOmegaRadPerS;
  const double spanS = kRevolutions * sc.periodS;
  sc.endS = spanS + kSettleS;
  sc.stream = sim::makeSharedStream(w, {spanS, 0, sim::deriveSeed(seed, 3)});
  sc.deployment = deploymentOf(w);
  sc.chaos.spanS = spanS;
  sc.chaos.revolutionPeriodS = sc.periodS;
  sc.chaos.outageAtS = 0.45 * spanS;
  sc.chaos.outageDurationS =
      std::min(sc.chaos.outageDurationS, 0.9 * spanS - sc.chaos.outageAtS);
  sc.chaos.seed = sim::deriveSeed(seed, 4);
  return sc;
}

runtime::FleetConfig fleetConfig(core::IoEnv* io) {
  runtime::FleetConfig fc = eval::FleetEvalConfig::defaultFleetConfig();
  fc.shards = kShards;
  fc.maxSessions = kSessions;
  fc.workerThreads = 0;
  fc.checkpointDir = kCheckpointDir;
  fc.io = io;
  return fc;
}

void registerAll(runtime::FleetManager& fleet, const Scenario& sc,
                 uint64_t seed) {
  for (size_t i = 0; i < kSessions; ++i) {
    sim::FlakyTransportConfig tc;
    tc.connectDelayS = 0.05;
    tc.seed = sim::deriveSeed(seed, 100 + i);
    tc.events = sim::fleetOutageScript(sc.chaos, i, kSessions);
    auto stream = sc.stream;
    fleet.registerSession(sessionName(i), [stream, tc] {
      return std::make_unique<sim::FlakyTransport>(stream, tc);
    });
  }
}

struct Epoch {
  std::vector<runtime::FleetFixEvent> events;
  runtime::FleetStats stats;
  size_t sessionsWithFix = 0;
};

// Traced run: the fleet-config stages, from observations rebuilt out of a
// session's checkpoint.
void traceSessionStages(const runtime::Supervisor& sup,
                        const core::LocatorConfig& cfg, double atS,
                        Tracer& tracer, Meter& meter,
                        std::vector<double>& snapsPerRig) {
  const core::CalibrationCheckpoint ckpt = sup.makeCheckpoint(atS);
  for (const auto& [epc, progress] : ckpt.tags) {
    const auto rig = sup.deployment().rigs.find(epc);
    if (rig == sup.deployment().rigs.end() || progress.snapshots.size() < 16) {
      continue;
    }
    const auto& snaps = progress.snapshots;
    snapsPerRig.push_back(double(snaps.size()));
    const robust::SpinDiagnosticsConfig* diag =
        cfg.robust.diagnostics ? &cfg.robust.diagnosticsConfig : nullptr;
    {
      auto s = tracer.span("core.rig_health");
      core::assessRigHealth(snaps, rig->second.kinematics, cfg.profile, diag);
    }
    std::optional<core::PowerProfile> profile;
    {
      auto s = tracer.span("core.profile_build");
      profile.emplace(snaps, rig->second.kinematics, cfg.profile);
    }
    {
      auto s = tracer.span("core.azimuth_search");
      core::estimateAzimuth(*profile, cfg.search);
    }
    // Seconds per snapshot-evaluation over a 720-point azimuth sweep.
    const size_t points = 720;
    double sum = 0.0;
    const double t0 = nowS();
    for (size_t k = 0; k < points; ++k) {
      sum += profile->evaluate(2.0 * std::numbers::pi * double(k) / double(points));
    }
    const double dt = nowS() - t0;
    evalSink = evalSink + sum;
    meter.add("profile_eval_2d", dt / (double(points) * double(snaps.size())));
  }
}

}  // namespace

RunResult runFleet(const RunConfig& config) {
  RunResult result;
  const double wallStart = nowS();
  Meter meter(config.part, config.nominal, kProbeCadenceS,
              config.elasticityOf("primary_op_ms"));
  for (const char* s : {"supervisor_fix", "runtime.supervisor_fix"}) {
    meter.setElasticity(s, config.elasticityOf("secondary_op_ms"));
  }
  meter.setElasticity("setup", config.elasticityOf("setup_s"));
  Tracer tracer(config.trace, meter);
  const Scenario sc = makeScenario(config.seed);
  const runtime::FleetConfig baseConfig = fleetConfig(nullptr);
  const core::LocatorConfig& fleetLocator = baseConfig.supervisor.locator;

  std::vector<double> snapsPerRig, lagS;
  uint64_t fixEvents = 0, okFixEvents = 0, failedAfterFirst = 0;
  uint64_t lateFixes = 0;  // traced epochs' ok fixes after one revolution
  size_t sessionsTotal = 0, sessionsWithFix = 0;
  runtime::FleetStats totals;
  size_t epochs = 0;
  uint64_t sampledFixes = 0;
  // Traced runs read the counters the program already keeps.
  obs::MetricsRegistry registry;

  // One epoch = the whole scenario on a fresh fleet and fresh in-memory
  // storage.
  MemIoEnv warmDisk;
  // In a traced run the first timed epoch runs without spans or registry:
  // its tick times against the traced epochs' give the tracing overhead.
  Tracer quiet(false, meter);
  const auto runEpoch = [&](MemIoEnv& disk, bool record, bool traced,
                            double endS) {
    Epoch ep;
    Tracer& tr = traced ? tracer : quiet;
    runtime::FleetConfig fc = fleetConfig(&disk);
    if (traced) fc.metrics = &registry;
    fc.onFix = [&ep](const runtime::FleetFixEvent& ev) { ep.events.push_back(ev); };
    runtime::FleetManager fleet(fc, sc.deployment);
    registerAll(fleet, sc, config.seed);
    fleet.restore();
    meter.probe();
    int tickIndex = 0;
    for (double t = 0.0; t <= endS + 1e-9; t += kTickS, ++tickIndex) {
      const double t0 = nowS();
      {
        auto s = tr.span("runtime.fleet_tick");
        fleet.tick(t);
      }
      const double dt = nowS() - t0;
      if (record && !traced) meter.add(config.trace ? "tick_untraced" : "tick", dt);
      // Ticks once every session holds a full revolution: the window in
      // which the sampled supervisor fixes are representative.
      if (traced && t >= sc.periodS) meter.add("tick_late", dt);
      if (record && t >= sc.periodS && tickIndex % kFixSampleTicks == 0) {
        const std::string name =
            sessionName(size_t(tickIndex / kFixSampleTicks) % kSessions);
        const runtime::Supervisor* sup = fleet.supervisor(name);
        if (sup != nullptr) {
          const double f0 = nowS();
          bool ok = false;
          {
            auto s = tr.span("runtime.supervisor_fix");
            ok = sup->tryLocate2D().hasValue();
          }
          if (traced) ++sampledFixes;
          if (ok && !config.trace) meter.add("supervisor_fix", nowS() - f0);
          if (traced) {
            meter.probe();
            {
              auto s = tr.span("runtime.checkpoint_save");
              MemIoEnv scratch;
              runtime::CheckpointStore("ckpt", &scratch)
                  .save(sup->makeCheckpoint(t));
            }
            traceSessionStages(*sup, fleetLocator, t, tr, meter, snapsPerRig);
            meter.probe();
          }
        }
      }
      meter.maybeProbe();
    }
    meter.probe();
    fleet.shutdown(endS);
    ep.stats = fleet.stats();
    for (const auto& v : fleet.sessions()) ep.sessionsWithFix += v.hasFix ? 1 : 0;
    return ep;
  };

  runEpoch(warmDisk, false, false, kWarmUpS);
  meter.reset();

  // --- set-up: construct, register every session, restore the warm-up
  // epoch's checkpoints; repeated ---
  meter.probe();
  size_t restored = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = nowS();
    {
      runtime::FleetManager fleet(fleetConfig(&warmDisk), sc.deployment);
      registerAll(fleet, sc, config.seed);
      restored = fleet.restore();
      meter.add("setup", nowS() - t0);
      meter.probe();
      if (fleet.stats().checkpointFailures != 0) {
        result.failures.push_back("fleet: a shard checkpoint failed to restore");
      }
    }
  }
  meter.probe();
  if (restored != kSessions) {
    result.failures.push_back("fleet: restore brought back " +
                              std::to_string(restored) + " of " +
                              std::to_string(kSessions) + " sessions");
  }

  const double measureStart = nowS();
  double lastEpochS = 0.0;
  // Epochs are long, so another one starts while at least half of it fits
  // in the window: the run then averages a steady number of epochs.
  const int minEpochs = config.trace ? 2 : 1;
  for (int e = 0;; ++e) {
    if (e >= minEpochs &&
        (nowS() - measureStart) + 0.5 * lastEpochS > config.seconds) {
      break;
    }
    const double e0 = nowS();
    MemIoEnv disk;
    const bool traced = config.trace && e > 0;
    const Epoch ep = runEpoch(disk, true, traced, sc.endS);
    lastEpochS = nowS() - e0;

    // Attempts before a session's first fix are warm-up retries (its spin
    // is not covered yet); a failure after it counts as a failed operation.
    std::map<std::string, bool> hasFixed;
    size_t okThisEpoch = 0;
    for (const auto& ev : ep.events) {
      ++fixEvents;
      if (ev.ok) {
        ++okThisEpoch;
        lagS.push_back(ev.nowS - ev.dueS);
        hasFixed[ev.name] = true;
      } else if (hasFixed[ev.name]) {
        ++failedAfterFirst;
      }
    }
    okFixEvents += okThisEpoch;
    if (okThisEpoch < kMinOkFixes) {
      result.failures.push_back("fleet: only " + std::to_string(okThisEpoch) +
                                " fix events with ok = true in an epoch");
    }
    sessionsTotal += kSessions;
    sessionsWithFix += ep.sessionsWithFix;
    if (ep.sessionsWithFix != kSessions) {
      result.failures.push_back("fleet: fleet_fix_rate below 1 in an epoch");
    }
    // Every shard checkpoint in memory must pass the store's framing and
    // CRC checks.
    size_t shardFiles = 0;
    for (const auto& [path, bytes] : disk.files()) {
      if (path.rfind(std::string(kCheckpointDir) + "/fleet_shard", 0) != 0 ||
          path.size() < 5 || path.compare(path.size() - 5, 5, ".ckpt") != 0) {
        continue;
      }
      ++shardFiles;
      if (!runtime::CheckpointStore::unframe(bytes).hasValue()) {
        result.failures.push_back("fleet: shard checkpoint " + path +
                                  " fails its integrity check");
      }
    }
    if (shardFiles != kShards) {
      result.failures.push_back("fleet: " + std::to_string(shardFiles) +
                                " shard checkpoints on disk, expected " +
                                std::to_string(kShards));
    }
    if (config.trace && !traced) continue;
    for (const auto& ev : ep.events) lateFixes += ev.ok && ev.nowS >= sc.periodS;
    ++epochs;
    totals.fixesComputed += ep.stats.fixesComputed;
    totals.fixesFailed += ep.stats.fixesFailed;
    totals.sessionsDeferred += ep.stats.sessionsDeferred;
    totals.budgetDenied += ep.stats.budgetDenied;
    totals.ejections += ep.stats.ejections;
    totals.checkpointWrites += ep.stats.checkpointWrites;
    totals.shedDegradedTicks += ep.stats.shedDegradedTicks;
  }

  result.attempted = okFixEvents + failedAfterFirst;
  result.failed = failedAfterFirst;
  const double fixRate =
      sessionsTotal ? double(sessionsWithFix) / double(sessionsTotal) : 0.0;
  const auto& ticks = config.trace ? meter.normalized("runtime.fleet_tick")
                                   : meter.normalized("tick");
  double tickTotal = 0.0;
  for (double v : ticks) tickTotal += v;
  const double meanTickS = ticks.empty() ? 0.0 : tickTotal / double(ticks.size());
  const double realtimeSessions =
      meanTickS > 0.0 ? double(kSessions) * kTickS / meanTickS : 0.0;

  Metrics& d = result.detail;
  d["fleet.fix_events"] = {double(fixEvents), "count"};
  d["fleet.ok_fix_events"] = {double(okFixEvents), "count"};
  d["fleet.ticks"] = {double(ticks.size()), "count"};
  d["fleet_realtime_sessions"] = {realtimeSessions, "sessions"};
  d["fix_lag_s_p50"] = {quantile(lagS, 0.5), "sim_s"};
  d["fix_lag_s_p95"] = {quantile(lagS, 0.95), "sim_s"};
  d["fleet_fix_rate"] = {fixRate, "fraction"};

  if (!config.trace) {
    reportTiming(meter, "tick", "primary_op_ms", "ms", 1e3, true, result);
    reportTiming(meter, "supervisor_fix", "secondary_op_ms", "ms", 1e3, false,
                 result);
    reportTiming(meter, "setup", "setup_s", "s", 1.0, false, result);
    result.metrics["ok_fraction"] = {fixRate, "fraction"};
    result.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    addHostMetrics(meter, nowS() - wallStart, config.trace, result);
    return result;
  }

  Metrics m;
  const auto ms = [&](const char* s) { return 1e3 * median(meter.normalized(s)); };
  m["core.profile_eval_ns_2d"] = {1e9 * median(meter.normalized("profile_eval_2d")), "ns"};
  m["core.profile_build_us"] = {1e6 * median(meter.normalized("core.profile_build")), "us"};
  m["core.azimuth_search_ms"] = {ms("core.azimuth_search"), "ms"};
  m["core.rig_health_ms"] = {ms("core.rig_health"), "ms"};
  m["core.snapshots_per_rig"] = {median(snapsPerRig), "count"};
  m["runtime.checkpoint_save_ms"] = {ms("runtime.checkpoint_save"), "ms"};
  m["runtime.fleet_tick_ms_p50"] = {1e3 * quantile(ticks, 0.5), "ms"};
  m["runtime.fleet_tick_ms_p95"] = {1e3 * quantile(ticks, 0.95), "ms"};
  const std::vector<double> untraced = meter.normalized("tick_untraced");
  if (!untraced.empty() && meanTickS > 0.0) {
    double sum = 0.0;
    for (double v : untraced) sum += v;
    m["obs.trace_overhead_fraction"] = {
        meanTickS / (sum / double(untraced.size())) - 1.0, "fraction"};
  }
  const double supFix = median(meter.normalized("runtime.supervisor_fix"));
  m["runtime.supervisor_fix_ms"] = {1e3 * supFix, "ms"};
  if (const double late = meter.sumNormalized("tick_late"); late > 0.0) {
    m["runtime.fix_share"] = {double(lateFixes) * supFix / late, "fraction"};
  }
  // Counts are per epoch (one pass over the scenario), so runs of
  // different length compare.
  const double perEpoch = epochs ? 1.0 / double(epochs) : 0.0;
  m["runtime.fixes_computed"] = {double(totals.fixesComputed) * perEpoch, "count"};
  m["runtime.fixes_failed"] = {double(totals.fixesFailed) * perEpoch, "count"};
  m["runtime.sessions_deferred"] = {double(totals.sessionsDeferred) * perEpoch, "count"};
  m["runtime.budget_denied"] = {double(totals.budgetDenied) * perEpoch, "count"};
  m["runtime.ejections"] = {double(totals.ejections) * perEpoch, "count"};
  m["runtime.checkpoint_writes"] = {double(totals.checkpointWrites) * perEpoch, "count"};
  m["runtime.shed_degraded_ticks"] = {double(totals.shedDegradedTicks) * perEpoch, "count"};
  const obs::MetricsSnapshot snap = registry.snapshot();
  const double seen = double(snap.counterValue("supervisor.reports_seen"));
  const double ingested = double(snap.counterValue("supervisor.reports_ingested"));
  m["runtime.reports_ingested"] = {ingested * perEpoch, "count"};
  m["runtime.duplicates_suppressed"] = {
      double(snap.counterValue("supervisor.duplicates_suppressed")) * perEpoch, "count"};
  m["runtime.queue_dropped"] = {
      double(snap.counterValue("queue.dropped_oldest") +
             snap.counterValue("queue.dropped_sampled") +
             snap.counterValue("queue.refused_full")) * perEpoch, "count"};
  m["runtime.ingest_useful_ratio"] = {seen > 0.0 ? ingested / seen : 0.0, "fraction"};
  m["rfid.frames_skipped"] = {
      double(snap.counterValue("llrp.frames_skipped")) * perEpoch, "count"};
  m["core.rigs_dropped"] = {
      double(snap.counterValue("locator.rigs_dropped")) * perEpoch, "count"};
  const double fixCalls = double(totals.fixesComputed + sampledFixes);
  if (const obs::HistogramView* h = snap.histogram("span.profile_eval");
      h != nullptr && fixCalls > 0.0) {
    m["core.profile_builds_per_fix2d"] = {double(h->count) / fixCalls, "count"};
  }
  if (const obs::HistogramView* h = snap.histogram("span.spectrum_search");
      h != nullptr && fixCalls > 0.0) {
    m["core.spectrum_searches_per_fix2d"] = {double(h->count) / fixCalls, "count"};
  }
  m["fleet_realtime_sessions"] = {realtimeSessions, "sessions"};
  m["fix_lag_s_p50"] = {quantile(lagS, 0.5), "sim_s"};
  m["fix_lag_s_p95"] = {quantile(lagS, 0.95), "sim_s"};
  m["fleet_fix_rate"] = {fixRate, "fraction"};
  m["failed_fraction"] = {
      fixEvents ? double(fixEvents - okFixEvents) / double(fixEvents) : 0.0, "fraction"};
  const std::vector<double> rawTicks = meter.raw("runtime.fleet_tick");
  if (!rawTicks.empty()) {
    m["host.raw.primary_op_ms"] = {
        1e3 * meter.sumRaw("runtime.fleet_tick") / double(rawTicks.size()), "ms"};
  }
  m["host.raw.secondary_op_ms"] = {1e3 * median(meter.raw("runtime.supervisor_fix")), "ms"};
  m["host.raw.setup_s"] = {median(meter.raw("setup")), "s"};
  result.metrics = std::move(m);
  if (!config.spansPath.empty()) tracer.write(config.spansPath);
  addHostMetrics(meter, nowS() - wallStart, config.trace, result);
  return result;
}

}  // namespace perfbench
