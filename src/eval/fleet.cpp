#include "eval/fleet.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <sstream>
#include <unordered_set>

#include "dsp/stats.hpp"
#include "eval/runner.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

std::string sessionName(size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "s%04zu", index);
  return buf;
}

/// One arm of the paired experiment.  Everything that could differ between
/// arms (outage scripts, persistence) is parameterized; the stream, world,
/// deployment and seeds are shared so latency deltas are attributable to
/// the faults alone.
FleetArmResult runArm(const FleetEvalConfig& config,
                      std::shared_ptr<const sim::SharedStream> stream,
                      const core::DeploymentFile& deployment,
                      const sim::FleetScenarioConfig& chaos, bool withOutage,
                      double endS) {
  FleetArmResult arm;

  runtime::FleetConfig fc = config.fleet;
  fc.shards = config.shards;
  fc.maxSessions = config.sessions;
  fc.workerThreads = config.workerThreads;
  fc.checkpointDir = withOutage ? config.checkpointDir : "";

  // Roles are fixed by index; resolve them once for the latency filter and
  // the recovery tracker.
  std::vector<sim::FleetRole> roles(config.sessions);
  std::vector<std::string> names(config.sessions);
  std::unordered_map<std::string, size_t> indexOf;
  for (size_t i = 0; i < config.sessions; ++i) {
    roles[i] = sim::fleetRole(chaos, i, config.sessions);
    names[i] = sessionName(i);
    indexOf[names[i]] = i;
  }

  const double windowStartS = chaos.outageAtS;
  const double windowEndS = chaos.outageAtS + chaos.outageDurationS;
  fc.onFix = [&](const runtime::FleetFixEvent& ev) {
    if (!ev.ok) return;
    if (ev.nowS < windowStartS || ev.nowS > windowEndS) return;
    const auto it = indexOf.find(ev.name);
    if (it == indexOf.end() || roles[it->second] != sim::FleetRole::kHealthy) {
      return;
    }
    arm.healthyWindowLatenciesS.push_back(ev.nowS - ev.dueS);
  };

  runtime::FleetManager fleet(fc, deployment);
  for (size_t i = 0; i < config.sessions; ++i) {
    sim::FlakyTransportConfig tc;
    tc.connectDelayS = config.connectDelayS;
    tc.seed = sim::deriveSeed(config.seed, 100 + i);
    if (withOutage) {
      tc.events = sim::fleetOutageScript(chaos, i, config.sessions);
    }
    fleet.registerSession(names[i], [stream, tc] {
      return std::make_unique<sim::FlakyTransport>(stream, tc);
    });
  }

  std::vector<size_t> cohort;
  for (size_t i = 0; i < config.sessions; ++i) {
    if (roles[i] == sim::FleetRole::kOutage) cohort.push_back(i);
  }
  arm.outageCohort = cohort.size();
  std::unordered_set<size_t> pendingRecovery(cohort.begin(), cohort.end());

  const auto wallStart = std::chrono::steady_clock::now();
  for (double t = 0.0; t <= endS + 1e-9; t += config.tickS) {
    fleet.tick(t);
    if (withOutage && t > windowEndS && !pendingRecovery.empty()) {
      for (auto it = pendingRecovery.begin(); it != pendingRecovery.end();) {
        const runtime::Supervisor* sup = fleet.supervisor(names[*it]);
        if (sup != nullptr &&
            sup->session(0).state() == runtime::SessionState::kStreaming) {
          const double sinceEndS = t - windowEndS;
          if (arm.firstRecoveryS < 0.0) arm.firstRecoveryS = sinceEndS;
          arm.lastRecoveryS = sinceEndS;
          ++arm.recovered;
          it = pendingRecovery.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  fleet.shutdown(endS);
  const auto wallEnd = std::chrono::steady_clock::now();
  arm.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();

  if (arm.recovered > 0) {
    arm.recoverySpreadS = arm.lastRecoveryS - arm.firstRecoveryS;
  }

  arm.stats = fleet.stats();
  const auto views = fleet.sessions();
  for (const auto& v : views) {
    if (v.hasFix) ++arm.sessionsWithFix;
  }
  arm.fixRate = views.empty()
                    ? 0.0
                    : static_cast<double>(arm.sessionsWithFix) /
                          static_cast<double>(views.size());
  const uint64_t ticks =
      static_cast<uint64_t>(std::floor(endS / config.tickS)) + 1;
  const uint64_t attempted = ticks * config.sessions;
  arm.supervisorTicks = attempted > arm.stats.sessionsDeferred
                            ? attempted - arm.stats.sessionsDeferred
                            : 0;
  return arm;
}

}  // namespace

runtime::FleetConfig FleetEvalConfig::defaultFleetConfig() {
  runtime::FleetConfig fc;
  fc.supervisor.session.queueCapacity = 2048;
  fc.supervisor.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  // Bound the per-fix cost at fleet scale: a fleet-serving fix budget is
  // per-session latency, not survey-grade precision.  Decimation keeps the
  // full spin arc at reduced density; a coarser azimuth grid with fewer
  // refine rounds still converges to centimetres; the angle spectrum and
  // spin diagnostics are luxuries a 500-session box can't afford per fix.
  fc.supervisor.maxSnapshotsPerTag = 400;
  fc.supervisor.checkpointSpectrumPoints = 0;
  fc.supervisor.locator.search.azimuthGridPoints = 180;
  fc.supervisor.locator.search.refineRounds = 4;
  fc.supervisor.locator.orientationIterations = 1;
  fc.supervisor.locator.robust.diagnostics = false;
  fc.supervisor.locator.robust.consensus = false;
  // Sized to the harness's shard width (~64 sessions each): a 20% outage
  // puts ~13 reconnects on a shard, and 4/s re-admits them over several
  // seconds -- visibly paced, but finished well before the stream ends.
  fc.retryBudget.tokensPerSecond = 4.0;
  fc.retryBudget.burst = 8.0;
  return fc;
}

FleetEvalResult runFleetEval(const FleetEvalConfig& config) {
  FleetEvalResult result;
  result.sessions = config.sessions;
  result.shards = config.shards;

  const double period =
      2.0 * std::numbers::pi / config.scenario.rigOmegaRadPerS;
  const double spanS = config.revolutions * period;
  const double endS = spanS + config.settleS;
  result.spanS = spanS;

  sim::FleetScenarioConfig chaos = config.chaos;
  chaos.spanS = spanS;
  chaos.revolutionPeriodS = period;
  if (chaos.outageAtS <= 0.0 || chaos.outageAtS >= spanS) {
    chaos.outageAtS = 0.45 * spanS;
  }
  if (chaos.outageAtS + chaos.outageDurationS > 0.9 * spanS) {
    chaos.outageDurationS = 0.9 * spanS - chaos.outageAtS;
  }
  result.outageStartS = chaos.outageAtS;
  result.outageEndS = chaos.outageAtS + chaos.outageDurationS;

  sim::World world = sim::makeRigRowWorld(config.scenario, config.rigCount);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  sim::Region region;
  const geom::Vec3 truth = region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);

  // Interrogate + encode exactly once; every transport in both arms shares
  // the stream (the fleet-scale point of sim::SharedStream).
  const auto stream = sim::makeSharedStream(
      world, {spanS, 0, sim::deriveSeed(config.seed, 2)});

  const core::DeploymentFile deployment = deploymentOf(world);

  result.baseline = runArm(config, stream, deployment, chaos,
                           /*withOutage=*/false, endS);
  result.chaos = runArm(config, stream, deployment, chaos,
                        /*withOutage=*/true, endS);

  if (!result.baseline.healthyWindowLatenciesS.empty()) {
    result.baselineP50S =
        dsp::percentile(result.baseline.healthyWindowLatenciesS, 50.0);
    result.baselineP99S =
        dsp::percentile(result.baseline.healthyWindowLatenciesS, 99.0);
  }
  if (!result.chaos.healthyWindowLatenciesS.empty()) {
    result.chaosP50S =
        dsp::percentile(result.chaos.healthyWindowLatenciesS, 50.0);
    result.chaosP99S =
        dsp::percentile(result.chaos.healthyWindowLatenciesS, 99.0);
  }
  if (result.baselineP99S > 1e-12) {
    result.isolationRatio = result.chaosP99S / result.baselineP99S;
  }
  if (result.chaos.wallSeconds > 0.0) {
    result.sessionTicksPerSec =
        static_cast<double>(result.chaos.supervisorTicks) /
        result.chaos.wallSeconds;
  }
  return result;
}

std::string fleetJson(const FleetEvalResult& result) {
  std::ostringstream out;
  out << "{\n";
  const auto num = [&](const char* key, double v, bool comma = true) {
    char line[128];
    std::snprintf(line, sizeof(line), "  \"%s\": %.6g%s\n", key, v,
                  comma ? "," : "");
    out << line;
  };
  num("sessions", double(result.sessions));
  num("shards", double(result.shards));
  num("span_s", result.spanS);
  num("outage_start_s", result.outageStartS);
  num("outage_end_s", result.outageEndS);
  num("baseline_p50_s", result.baselineP50S);
  num("baseline_p99_s", result.baselineP99S);
  num("chaos_p50_s", result.chaosP50S);
  num("chaos_p99_s", result.chaosP99S);
  num("isolation_ratio", result.isolationRatio);
  num("session_ticks_per_sec", result.sessionTicksPerSec);
  num("baseline_fix_rate", result.baseline.fixRate);
  num("chaos_fix_rate", result.chaos.fixRate);
  num("chaos_window_samples",
      double(result.chaos.healthyWindowLatenciesS.size()));
  num("baseline_window_samples",
      double(result.baseline.healthyWindowLatenciesS.size()));
  num("outage_cohort", double(result.chaos.outageCohort));
  num("outage_recovered", double(result.chaos.recovered));
  num("recovery_first_s", result.chaos.firstRecoveryS);
  num("recovery_last_s", result.chaos.lastRecoveryS);
  num("recovery_spread_s", result.chaos.recoverySpreadS);
  num("ejections", double(result.chaos.stats.ejections));
  num("readmissions", double(result.chaos.stats.readmissions));
  num("quarantined_at_end", double(result.chaos.stats.quarantinedNow));
  num("budget_denied", double(result.chaos.stats.budgetDenied));
  num("sessions_deferred", double(result.chaos.stats.sessionsDeferred));
  num("fixes_computed", double(result.chaos.stats.fixesComputed));
  num("fixes_skipped_shed", double(result.chaos.stats.fixesSkippedShed));
  num("shed_degraded_ticks", double(result.chaos.stats.shedDegradedTicks));
  num("shed_critical_ticks", double(result.chaos.stats.shedCriticalTicks));
  num("checkpoint_writes", double(result.chaos.stats.checkpointWrites));
  num("wall_seconds_chaos", result.chaos.wallSeconds);
  num("wall_seconds_baseline", result.baseline.wallSeconds, false);
  out << "}\n";
  return out.str();
}

}  // namespace tagspin::eval
