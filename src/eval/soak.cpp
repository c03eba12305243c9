#include "eval/soak.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <sstream>

#include "eval/estimators.hpp"
#include "eval/metrics.hpp"
#include "core/tagspin.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

size_t totalSnapshots(const runtime::Supervisor& sup) {
  size_t n = 0;
  for (const auto& [epc, rig] : sup.deployment().rigs) {
    n += sup.tagSnapshotCount(epc);
  }
  return n;
}

}  // namespace

runtime::SupervisorConfig SoakConfig::defaultSupervisorConfig() {
  runtime::SupervisorConfig sup;
  // A flood flushes a couple of revolutions of stream into a single poll;
  // keep the queue small enough that the backpressure policy actually
  // engages under the standard script.
  sup.session.queueCapacity = 2048;
  sup.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  return sup;
}

SoakResult runSoak(const SoakConfig& config) {
  SoakResult result;

  // All runtime accounting flows through one registry that outlives every
  // session/supervisor the run creates (including the kill/restore), so
  // the counters below are lifetime totals by construction -- no
  // reset-folding needed.
  obs::MetricsRegistry localRegistry;
  obs::EventJournal localJournal;
  obs::MetricsRegistry* reg = config.metrics ? config.metrics : &localRegistry;
  obs::EventJournal* journal =
      config.journal ? config.journal : &localJournal;
  runtime::SupervisorConfig supCfg = config.supervisor;
  if (!supCfg.metrics) supCfg.metrics = reg;
  if (!supCfg.journal) supCfg.journal = journal;

  const double period =
      2.0 * std::numbers::pi / config.scenario.rigOmegaRadPerS;
  const double durationS = config.revolutions * period;
  const double endS = durationS + config.settleS;

  sim::World world = sim::makeRigRowWorld(config.scenario, config.rigCount);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  const geom::Vec3 truth = config.region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);

  // One interrogation drives both arms: the flaky transport serves the
  // encoded stream through the outage script, and the exact same clean
  // reports feed the uninterrupted baseline.
  sim::FlakyTransportConfig tc;
  tc.interrogate = {durationS, 0, sim::deriveSeed(config.seed, 2)};
  tc.connectDelayS = config.connectDelayS;
  tc.seed = sim::deriveSeed(config.seed, 3);
  tc.events = config.events.empty()
                  ? sim::standardOutageScript(durationS, period,
                                              sim::deriveSeed(config.seed, 4))
                  : config.events;
  auto shared = std::make_shared<sim::FlakyTransport>(world, tc);
  result.cleanReports = shared->cleanReports().size();

  {
    core::TagspinSystem server = buildTagspinServer(
        world, {}, config.supervisor.locator);
    const auto base = server.tryLocate2D(shared->cleanReports());
    result.baselineOk = base.hasValue();
    if (base.hasValue()) {
      result.baselineErrorCm =
          errorCm(base->fix.position, {truth.x, truth.y}).combined;
    }
  }

  const core::DeploymentFile deployment = deploymentOf(world);

  const std::string ckptPath = config.checkpointPath.empty()
                                   ? "soak_checkpoint.ckpt"
                                   : config.checkpointPath;
  std::remove(ckptPath.c_str());
  std::remove((ckptPath + ".tmp").c_str());
  runtime::CheckpointStore store(ckptPath);

  const runtime::TransportFactory factory = [shared] {
    return std::make_unique<runtime::SharedTransport>(shared);
  };
  auto sup = std::make_unique<runtime::Supervisor>(supCfg, deployment, &store);
  sup->addSession("reader0", factory);

  // Recovery tracking: an outage "recovers" when a report is ingested
  // after the event window closes.  Floods never pause ingest, so only
  // disconnects and stalls are tracked.
  struct Tracker {
    OutageRecovery rec;
    uint64_t ingestedAtStart = 0;
    bool started = false;
  };
  std::vector<Tracker> trackers;
  for (const sim::OutageEvent& ev : tc.events) {
    if (ev.kind == sim::OutageEvent::Kind::kFlood) continue;
    Tracker t;
    t.rec.event = ev;
    trackers.push_back(t);
  }

  // Registry handles read during the run (registration is idempotent, so
  // resolving before the first increment is fine -- they start at zero).
  obs::Counter* ingestedC = reg->counter("supervisor.reports_ingested");
  obs::Counter* dupC = reg->counter("supervisor.duplicates_suppressed");

  const double killAtS = config.killAtFraction > 0.0
                             ? config.killAtFraction * durationS
                             : -1.0;
  double ckptReaderTs = 0.0;
  uint64_t dupAtRestart = 0;
  bool killDone = false;

  for (double t = 0.0; t <= endS + 1e-9; t += config.tickS) {
    if (!killDone && killAtS > 0.0 && t >= killAtS) {
      killDone = true;
      result.killed = true;
      result.killAtS = t;
      result.snapshotsAtKill = totalSnapshots(*sup);
      // kill -9: the supervisor object dies without shutdown(); whatever
      // the last periodic checkpoint captured is all that survives.  The
      // reader sees the TCP connection reset.
      sup.reset();
      shared->close();
      sup = std::make_unique<runtime::Supervisor>(supCfg, deployment, &store);
      const auto restored = sup->restore();
      result.restoreOk = restored.hasValue();
      if (restored.hasValue()) {
        result.checkpointAgeAtKillS = t - restored->wallTimeS;
        ckptReaderTs = restored->lastReportTimestampS;
      }
      result.snapshotsRestored = totalSnapshots(*sup);
      sup->addSession("reader0", factory);
      dupAtRestart = dupC->value();
    }

    sup->tick(t);

    const uint64_t cumIngested = ingestedC->value();
    for (Tracker& tr : trackers) {
      if (!tr.started && t >= tr.rec.event.atS) {
        tr.started = true;
        tr.ingestedAtStart = cumIngested;
      }
      const double eventEnd = tr.rec.event.atS + tr.rec.event.durationS;
      if (tr.started && !tr.rec.recovered && t > eventEnd &&
          cumIngested > tr.ingestedAtStart) {
        tr.rec.recovered = true;
        tr.rec.recoveredAtS = t;
        tr.rec.timeToRecoverS = t - eventEnd;
      }
    }
  }

  sup->shutdown(endS);

  const auto fix = sup->tryLocate2D();
  result.soakOk = fix.hasValue();
  if (fix.hasValue()) {
    result.soakErrorCm =
        errorCm(fix->fix.position, {truth.x, truth.y}).combined;
    result.soakGrade = core::fixGradeName(fix->report.grade);
  } else {
    result.soakFailure = core::errorCodeName(fix.code());
  }
  if (result.baselineOk && result.soakOk && result.baselineErrorCm > 1e-12) {
    result.errorRatio = result.soakErrorCm / result.baselineErrorCm;
  }

  result.allRecovered = !trackers.empty();
  double sumRecover = 0.0;
  for (const Tracker& tr : trackers) {
    result.recoveries.push_back(tr.rec);
    if (!tr.rec.recovered) result.allRecovered = false;
    if (tr.rec.recovered) {
      sumRecover += tr.rec.timeToRecoverS;
      result.maxTimeToRecoverS =
          std::max(result.maxTimeToRecoverS, tr.rec.timeToRecoverS);
    }
  }
  if (!trackers.empty()) {
    result.meanTimeToRecoverS = sumRecover / double(trackers.size());
  }

  // Everything below reads the registry: one source of truth for the whole
  // run, exactly what a scraped deployment would see.
  result.telemetry = reg->snapshot();
  result.telemetryJson = obs::toJson(result.telemetry, journal);
  result.telemetryPrometheus = obs::toPrometheus(result.telemetry);
  const obs::MetricsSnapshot& snap = result.telemetry;

  result.reportsSeen = snap.counterValue("supervisor.reports_seen");
  result.reportsIngested = snap.counterValue("supervisor.reports_ingested");
  result.framesLostWhileDown = shared->stats().framesLostWhileDown;
  if (result.cleanReports > 0) {
    result.reportLossFraction =
        1.0 - double(result.reportsSeen) / double(result.cleanReports);
  }

  if (result.killed && result.cleanReports > 0) {
    // The transport never replays delivered frames, so re-acquired spin
    // shows up as checkpoint-dedup suppressions after the restart.  Convert
    // that to revolutions via the stream's mean report density.
    const double reportsPerRev =
        double(result.cleanReports) / config.revolutions;
    result.revolutionsReacquired =
        double(snap.counterValue("supervisor.duplicates_suppressed") -
               dupAtRestart) /
        reportsPerRev;
    (void)ckptReaderTs;
  }

  result.checkpointsSaved = snap.counterValue("checkpoint.saves");
  result.sessionsRestarted = snap.counterValue("supervisor.sessions_restarted");
  result.sessionDisconnects = snap.counterValue("session.disconnects");
  result.watchdogNoReport = snap.counterValue("session.watchdog_no_report");
  result.watchdogStuckClock =
      snap.counterValue("session.watchdog_stuck_clock");
  result.duplicatesSuppressed =
      snap.counterValue("supervisor.duplicates_suppressed");
  result.queue.offered = snap.counterValue("queue.offered");
  result.queue.accepted = snap.counterValue("queue.accepted");
  result.queue.refusedFull = snap.counterValue("queue.refused_full");
  result.queue.droppedOldest = snap.counterValue("queue.dropped_oldest");
  result.queue.droppedSampled = snap.counterValue("queue.dropped_sampled");
  result.queue.maxDepth =
      static_cast<size_t>(snap.gaugeValue("queue.max_depth"));
  return result;
}

std::string soakCsv(const SoakResult& result) {
  std::ostringstream out;
  out << "event,at_s,duration_s,recovered,time_to_recover_s\n";
  for (const OutageRecovery& r : result.recoveries) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s,%.3f,%.3f,%d,%.3f\n",
                  sim::outageKindName(r.event.kind), r.event.atS,
                  r.event.durationS, r.recovered ? 1 : 0, r.timeToRecoverS);
    out << line;
  }
  return out.str();
}

std::string soakJson(const SoakResult& result) {
  std::ostringstream out;
  out << "{\n";
  const auto num = [&](const char* key, double v, bool comma = true) {
    char line[128];
    std::snprintf(line, sizeof(line), "  \"%s\": %.6g%s\n", key, v,
                  comma ? "," : "");
    out << line;
  };
  const auto boolean = [&](const char* key, bool v) {
    out << "  \"" << key << "\": " << (v ? "true" : "false") << ",\n";
  };
  boolean("baseline_ok", result.baselineOk);
  boolean("soak_ok", result.soakOk);
  num("baseline_error_cm", result.baselineErrorCm);
  num("soak_error_cm", result.soakErrorCm);
  num("error_ratio", result.errorRatio);
  out << "  \"soak_grade\": \"" << result.soakGrade << "\",\n";
  out << "  \"soak_failure\": \"" << result.soakFailure << "\",\n";
  boolean("all_recovered", result.allRecovered);
  num("outages_tracked", double(result.recoveries.size()));
  num("max_time_to_recover_s", result.maxTimeToRecoverS);
  num("mean_time_to_recover_s", result.meanTimeToRecoverS);
  num("clean_reports", double(result.cleanReports));
  num("reports_seen", double(result.reportsSeen));
  num("reports_ingested", double(result.reportsIngested));
  num("frames_lost_while_down", double(result.framesLostWhileDown));
  num("report_loss_fraction", result.reportLossFraction);
  boolean("killed", result.killed);
  boolean("restore_ok", result.restoreOk);
  num("kill_at_s", result.killAtS);
  num("snapshots_at_kill", double(result.snapshotsAtKill));
  num("snapshots_restored", double(result.snapshotsRestored));
  num("checkpoint_age_at_kill_s", result.checkpointAgeAtKillS);
  num("revolutions_reacquired", result.revolutionsReacquired);
  num("checkpoints_saved", double(result.checkpointsSaved));
  num("sessions_restarted", double(result.sessionsRestarted));
  num("session_disconnects", double(result.sessionDisconnects));
  num("watchdog_no_report", double(result.watchdogNoReport));
  num("watchdog_stuck_clock", double(result.watchdogStuckClock));
  num("duplicates_suppressed", double(result.duplicatesSuppressed));
  num("queue_refused_full", double(result.queue.refusedFull));
  num("queue_dropped_oldest", double(result.queue.droppedOldest));
  num("queue_dropped_sampled", double(result.queue.droppedSampled));
  num("queue_max_depth", double(result.queue.maxDepth), false);
  out << "}\n";
  return out.str();
}

}  // namespace tagspin::eval
