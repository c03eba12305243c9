// tagspin_cli -- the deployment workflow as a command-line tool.
//
//   tagspin_cli simulate --dir DIR [--seed N] [--duration S]
//                        [--reader X,Y,Z] [--llrp]
//       Simulate a two-rig deployment: writes DIR/deployment.txt (rig
//       registry + fitted orientation models) and DIR/trace.csv (or
//       trace.llrp with --llrp) for a reader at the given position.
//
//   tagspin_cli locate --deployment FILE --trace FILE [--three-d]
//       Reload the deployment, ingest the trace (CSV or LLRP binary,
//       by extension) and print the reader fix with its grade, confidence
//       and dropped rigs.  When there is no fix, prints the error code and
//       why, and exits 1.
//
//   tagspin_cli inspect --trace FILE
//       Per-tag read statistics of a trace, and the spectrum-kernel build
//       (instruction-set level) this host runs.
//
//   tagspin_cli serve --dir DIR [--seed N] [--revolutions R] [--rigs N]
//                     [--kill-at F] [--no-outages] [--reader X,Y,Z]
//                     [--fleet-sessions N --shards K]
//       Run the supervised session runtime end-to-end against a simulated
//       flaky reader: connect/backoff state machine, watchdogs, bounded
//       ingest queues, and crash-safe checkpoints in DIR/checkpoint.ckpt.
//       The standard outage script injects disconnects, a stall and a
//       flood; --kill-at F simulates a kill -9 at fraction F of the run
//       followed by a restart that resumes from the checkpoint.  Runtime
//       telemetry is dumped periodically (and at exit) to DIR/metrics.prom
//       and DIR/metrics.json alongside the checkpoint.
//       With --fleet-sessions N, the FleetManager multiplexes N flaky
//       sessions over --shards K fault domains instead: shard-local retry
//       budgets, quarantine, load shedding, and batched per-shard
//       checkpoints in DIR/fleet_shard<k>.ckpt.
//
//   tagspin_cli stats --dir DIR [--format prom|json]
//       On-demand export: print the telemetry snapshot a serve run left in
//       DIR (Prometheus text or JSON with the recent event journal).  The
//       spectrum-kernel build this host runs goes to stderr, so stdout
//       stays the export.
//
//   tagspin_cli record --dir DIR [--seed N] [--revolutions R] [--rigs N]
//                      [--no-outages] [--reader X,Y,Z] [--chunk-reports N]
//                      [--fsync-every N]
//       A serve run with a recording tap: every report the session's
//       transport delivers (including outage gaps and flood bursts, with
//       their delivery timing) is appended crash-safely to
//       DIR/capture.tspc alongside DIR/deployment.txt.  Prints the final
//       fix, its digest, and the capture accounting.
//
//   tagspin_cli track [--windows N] [--rigs N] [--seed N]
//                     [--capture FILE --deployment FILE [--interval S]]
//       Moving-reader tracking.  Without --capture: the deterministic
//       simulated patrol evaluation (the fig_track arms) -- prints the
//       clean/dropout/outage summaries and the replay digest.  With
//       --capture: re-drive a recorded capture through a supervised
//       session with the fix tracker enabled, taking a fix every
//       --interval seconds; prints the trajectory digest -- the same
//       capture twice yields the same digest, bit for bit.
//
//   tagspin_cli replay --capture FILE --deployment FILE [--speed N]
//                      [--strict] [--fleet-sessions N --shards K]
//       Re-drive the runtime from a capture instead of a live reader, at N
//       times the recorded pace (--speed 0 = as fast as possible).  The
//       tolerant reader skips corrupt chunks (accounting printed;
//       --strict hard-fails instead).  With --fleet-sessions N the one
//       capture fans out across N FleetManager sessions as a load
//       generator.  Prints the fix and its digest -- replaying the same
//       capture twice prints the same digest, bit for bit.
//
// The crash-consistency and allocation-failure explorers run as the
// bench/fig_crash and bench/fig_oom binaries.
//
// The locate path touches no simulator code: it is exactly what a server
// attached to a real reader would run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "capture/digest.hpp"
#include "capture/record.hpp"
#include "capture/replay.hpp"
#include "capture/writer.hpp"
#include "core/power_profile.hpp"
#include "core/serialization.hpp"
#include "core/tagspin.hpp"
#include "eval/fleet.hpp"
#include "eval/runner.hpp"
#include "eval/track.hpp"
#include "geom/angles.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "runtime/supervisor.hpp"
#include "sim/flaky_transport.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

namespace {

struct Args {
  std::map<std::string, std::string> named;
  bool has(const std::string& k) const { return named.count(k) > 0; }
  std::string get(const std::string& k, const std::string& fallback) const {
    const auto it = named.find(k);
    return it == named.end() ? fallback : it->second;
  }
};

Args parseArgs(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + key);
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.named[key] = argv[++i];
    } else {
      args.named[key] = "1";  // boolean flag
    }
  }
  return args;
}

geom::Vec3 parseVec3(const std::string& s) {
  geom::Vec3 v;
  char c1 = 0, c2 = 0;
  std::istringstream ss(s);
  if (!(ss >> v.x >> c1 >> v.y >> c2 >> v.z) || c1 != ',' || c2 != ',') {
    throw std::invalid_argument("expected X,Y,Z: " + s);
  }
  return v;
}

rfid::ReportStream loadTrace(const std::string& path) {
  const bool llrp = path.size() > 5 &&
                    path.compare(path.size() - 5, 5, ".llrp") == 0;
  std::ifstream in(path, llrp ? std::ios::binary : std::ios::in);
  if (!in) throw std::runtime_error("cannot open trace: " + path);
  if (llrp) {
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    return rfid::llrp::decodeStream(bytes);
  }
  rfid::ReportStream reports;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (!line.empty()) reports.push_back(rfid::fromCsvLine(line));
  }
  return reports;
}

int cmdSimulate(const Args& args) {
  const std::string dir = args.get("dir", ".");
  sim::ScenarioConfig sc;
  sc.seed = std::stoull(args.get("seed", "1"));
  sim::World world = sim::makeTwoRigWorld(sc);
  const geom::Vec3 reader = parseVec3(args.get("reader", "0.8,2.0,0"));
  sim::placeReaderAntenna(world, 0, reader);

  std::printf("running the orientation-calibration prelude...\n");
  const auto models = eval::runCalibrationPrelude(world, 60.0);

  core::DeploymentFile deployment = eval::deploymentOf(world);
  deployment.orientationModels = models;
  {
    std::ofstream out(dir + "/deployment.txt");
    if (!out) throw std::runtime_error("cannot write " + dir);
    core::writeDeployment(out, deployment);
  }

  const double duration = std::stod(args.get("duration", "30"));
  const rfid::ReportStream reports =
      sim::interrogate(world, {duration, 0, 0});
  if (args.has("llrp")) {
    const auto bytes = rfid::llrp::encodeStream(reports);
    std::ofstream out(dir + "/trace.llrp", std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote %s/deployment.txt and %s/trace.llrp (%zu reports, "
                "%zu bytes)\n", dir.c_str(), dir.c_str(), reports.size(),
                bytes.size());
  } else {
    std::ofstream out(dir + "/trace.csv");
    out << rfid::csvHeader() << "\n";
    for (const rfid::TagReport& r : reports) {
      out << rfid::toCsvLine(r) << "\n";
    }
    std::printf("wrote %s/deployment.txt and %s/trace.csv (%zu reports)\n",
                dir.c_str(), dir.c_str(), reports.size());
  }
  std::printf("ground-truth reader position: (%.3f, %.3f, %.3f)\n", reader.x,
              reader.y, reader.z);
  return 0;
}

int cmdLocate(const Args& args) {
  std::ifstream dep(args.get("deployment", "deployment.txt"));
  if (!dep) throw std::runtime_error("cannot open deployment file");
  const core::DeploymentFile deployment = core::readDeployment(dep);

  core::TagspinSystem server;
  for (const auto& [epc, rig] : deployment.rigs) {
    server.registerRig(epc, rig);
  }
  for (const auto& [epc, rig] : deployment.verticalRigs) {
    server.registerVerticalRig(epc, rig);
  }
  for (const auto& [epc, model] : deployment.orientationModels) {
    server.setOrientationModel(epc, model);
  }

  const rfid::ReportStream reports = loadTrace(args.get("trace", "trace.csv"));
  std::printf("%zu reports, %zu registered rigs\n", reports.size(),
              server.rigCount());
  const auto failed = [](const core::Error& error) {
    std::fprintf(stderr, "error: %s: %s\n", core::errorCodeName(error.code),
                 error.message.c_str());
    return 1;
  };
  const bool threeD = args.has("three-d");
  std::vector<core::RigDirection> directions;
  core::ResilienceReport report;
  if (threeD) {
    auto result = server.tryLocate3D(reports);
    if (!result) return failed(result.error());
    const core::Fix3D& fix = result->fix;
    std::printf("fix: (%.3f, %.3f, %.3f) m\n", fix.position.x, fix.position.y,
                fix.position.z);
    if (fix.mirrorCandidate) {
      std::printf("mirror candidate: (%.3f, %.3f, %.3f) m\n",
                  fix.mirrorCandidate->x, fix.mirrorCandidate->y,
                  fix.mirrorCandidate->z);
    }
    directions = fix.directions;
    report = std::move(result->report);
  } else {
    auto result = server.tryLocate2D(reports);
    if (!result) return failed(result.error());
    const core::Fix2D& fix = result->fix;
    std::printf("fix: (%.3f, %.3f) m  [ray residual %.1f mm]\n",
                fix.position.x, fix.position.y, fix.residualM * 1000.0);
    directions = fix.directions;
    report = std::move(result->report);
  }
  std::printf("grade %s, confidence %.3f\n", core::fixGradeName(report.grade),
              report.confidence);
  // Rig numbers index the heard rigs in EPC order; directions are parallel
  // to the used ones.
  for (size_t k = 0; k < directions.size(); ++k) {
    std::printf("  rig %zu: azimuth %.2f deg", report.usedRigs[k],
                geom::radToDeg(directions[k].azimuth));
    if (threeD) {
      std::printf(", polar %.2f deg", geom::radToDeg(directions[k].polar));
    }
    std::printf(", peak %.3f\n", directions[k].peakValue);
  }
  for (size_t k = 0; k < report.droppedRigs.size(); ++k) {
    std::printf("  rig %zu dropped: %s\n", report.droppedRigs[k],
                report.droppedReasons[k].c_str());
  }
  return 0;
}

/// The spectrum-kernel build every profile value of this process uses.
void printKernel(std::FILE* out) {
  std::fprintf(out, "kernel: %s\n",
               core::kernelIsaName(core::activeKernelIsa()));
}

int cmdInspect(const Args& args) {
  const rfid::ReportStream reports = loadTrace(args.get("trace", "trace.csv"));
  printKernel(stdout);
  if (reports.empty()) {
    std::printf("empty trace\n");
    return 0;
  }
  std::map<rfid::Epc, size_t> counts;
  std::map<int, size_t> channels;
  for (const rfid::TagReport& r : reports) {
    counts[r.epc]++;
    channels[r.channelIndex]++;
  }
  const double span =
      reports.back().timestampS - reports.front().timestampS;
  std::printf("%zu reports over %.1f s, %zu tags, %zu channels\n",
              reports.size(), span, counts.size(), channels.size());
  for (const auto& [epc, n] : counts) {
    std::printf("  %s  %6zu reads (%.1f /s)\n", epc.toHex().c_str(), n,
                span > 0 ? static_cast<double>(n) / span : 0.0);
  }
  return 0;
}

/// serve --fleet-sessions N --shards K: the fleet runtime instead of the
/// single supervisor.  N flaky sessions (sharing one pre-encoded stream)
/// are multiplexed over K fault domains; each session runs the standard
/// outage script with its own seed, so disconnect/stall/flood timing is
/// decorrelated across the fleet and the containment machinery -- retry
/// budgets, quarantine, shedding, batched checkpoints -- does real work.
int cmdServeFleet(const Args& args, size_t sessions) {
  const std::string dir = args.get("dir", ".");
  sim::ScenarioConfig sc;
  sc.seed = std::stoull(args.get("seed", "7"));
  sc.fixedChannel = true;
  const int rigCount = std::stoi(args.get("rigs", "3"));
  const double revolutions = std::stod(args.get("revolutions", "10"));
  const size_t shards = std::stoul(args.get("shards", "4"));
  const double period = 2.0 * std::numbers::pi / sc.rigOmegaRadPerS;
  const double durationS = revolutions * period;

  sim::World world = sim::makeRigRowWorld(sc, rigCount);
  const geom::Vec3 reader = parseVec3(args.get("reader", "0.8,2.0,0"));
  sim::placeReaderAntenna(world, 0, reader);
  const auto stream = sim::makeSharedStream(
      world, {durationS, 0, sim::deriveSeed(sc.seed, 2)});

  const core::DeploymentFile deployment = eval::deploymentOf(world);

  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  runtime::FleetConfig fc = eval::FleetEvalConfig::defaultFleetConfig();
  fc.shards = shards;
  fc.maxSessions = sessions;
  fc.checkpointDir = dir;
  fc.metrics = &metrics;
  fc.journal = &journal;

  runtime::FleetManager fleet(fc, deployment);
  for (size_t i = 0; i < sessions; ++i) {
    sim::FlakyTransportConfig tc;
    tc.seed = sim::deriveSeed(sc.seed, 100 + i);
    if (!args.has("no-outages")) {
      tc.events = sim::standardOutageScript(durationS, period,
                                            sim::deriveSeed(sc.seed, 200 + i));
    }
    char name[24];
    std::snprintf(name, sizeof(name), "s%04zu", i);
    fleet.registerSession(name, [stream, tc] {
      return std::make_unique<sim::FlakyTransport>(stream, tc);
    });
  }
  const size_t restored = fleet.restore();  // fresh start: 0 restored
  std::printf("fleet: %zu sessions over %zu shards, %d rigs, %.0f "
              "revolutions (%.0f s)%s\n",
              fleet.sessionCount(), fleet.shardCount(), rigCount, revolutions,
              durationS, restored > 0 ? " [resumed from shard checkpoints]"
                                      : "");

  const double tickS = 0.1;
  double nextStatusS = 0.0;
  for (double t = 0.0; t <= durationS + 2.0; t += tickS) {
    fleet.tick(t);
    if (t >= nextStatusS) {
      const runtime::FleetStats s = fleet.stats();
      size_t withFix = 0;
      for (const auto& v : fleet.sessions()) {
        if (v.hasFix) ++withFix;
      }
      std::printf("[%7.1f s] shed %-8s fixed %4zu/%-4zu quarantined %-3zu "
                  "budget-denied %-6llu deferred %-6llu ckpts %llu\n", t,
                  runtime::shedLevelName(fleet.shedLevel()), withFix,
                  fleet.sessionCount(), s.quarantinedNow,
                  static_cast<unsigned long long>(s.budgetDenied),
                  static_cast<unsigned long long>(s.sessionsDeferred),
                  static_cast<unsigned long long>(s.checkpointWrites));
      nextStatusS += durationS / 10.0;
    }
  }
  fleet.shutdown(durationS + 2.0);

  const runtime::FleetStats s = fleet.stats();
  size_t withFix = 0;
  for (const auto& v : fleet.sessions()) {
    if (v.hasFix) ++withFix;
  }
  std::printf("fleet done: %zu/%zu sessions hold a fix | ejected %llu, "
              "readmitted %llu | fixes %llu (+%llu shed-skipped) | "
              "checkpoint writes %llu (failures %llu)\n",
              withFix, fleet.sessionCount(),
              static_cast<unsigned long long>(s.ejections),
              static_cast<unsigned long long>(s.readmissions),
              static_cast<unsigned long long>(s.fixesComputed),
              static_cast<unsigned long long>(s.fixesSkippedShed),
              static_cast<unsigned long long>(s.checkpointWrites),
              static_cast<unsigned long long>(s.checkpointFailures));
  const obs::MetricsSnapshot snap = metrics.snapshot();
  obs::writeTextFile(dir + "/metrics.prom", obs::toPrometheus(snap));
  obs::writeTextFile(dir + "/metrics.json", obs::toJson(snap, &journal));
  std::printf("shard checkpoints: %s/fleet_shard<k>.ckpt | telemetry: "
              "%s/metrics.{prom,json}\n", dir.c_str(), dir.c_str());
  return withFix == fleet.sessionCount() ? 0 : 1;
}

int cmdServe(const Args& args) {
  const size_t fleetSessions = std::stoul(args.get("fleet-sessions", "0"));
  if (fleetSessions > 0) return cmdServeFleet(args, fleetSessions);
  const std::string dir = args.get("dir", ".");
  sim::ScenarioConfig sc;
  sc.seed = std::stoull(args.get("seed", "7"));
  sc.fixedChannel = true;
  const int rigCount = std::stoi(args.get("rigs", "3"));
  const double revolutions = std::stod(args.get("revolutions", "10"));
  const double killAt = std::stod(args.get("kill-at", "0"));
  const double period = 2.0 * std::numbers::pi / sc.rigOmegaRadPerS;
  const double durationS = revolutions * period;

  sim::World world = sim::makeRigRowWorld(sc, rigCount);
  const geom::Vec3 reader = parseVec3(args.get("reader", "0.8,2.0,0"));
  sim::placeReaderAntenna(world, 0, reader);

  sim::FlakyTransportConfig tc;
  tc.interrogate = {durationS, 0, sim::deriveSeed(sc.seed, 2)};
  tc.seed = sim::deriveSeed(sc.seed, 3);
  if (!args.has("no-outages")) {
    tc.events = sim::standardOutageScript(durationS, period,
                                          sim::deriveSeed(sc.seed, 4));
  }
  auto shared = std::make_shared<sim::FlakyTransport>(world, tc);
  std::printf("serving %d rigs for %.0f revolutions (%.0f s), %zu outage "
              "events scripted\n", rigCount, revolutions, durationS,
              tc.events.size());

  const core::DeploymentFile deployment = eval::deploymentOf(world);

  const std::string ckptPath = dir + "/checkpoint.ckpt";
  std::remove(ckptPath.c_str());
  runtime::CheckpointStore store(ckptPath);
  const runtime::TransportFactory factory = [shared] {
    return std::make_unique<runtime::SharedTransport>(shared);
  };

  // One registry + journal for the whole serve run: they outlive the
  // supervisor, so counters keep accumulating across the kill -9 restart
  // exactly like a scrape endpoint on a real deployment would.
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  const auto dumpTelemetry = [&] {
    const obs::MetricsSnapshot snap = metrics.snapshot();
    obs::writeTextFile(dir + "/metrics.prom", obs::toPrometheus(snap));
    obs::writeTextFile(dir + "/metrics.json", obs::toJson(snap, &journal));
  };

  runtime::SupervisorConfig supCfg;
  supCfg.session.queueCapacity = 2048;
  supCfg.metrics = &metrics;
  supCfg.journal = &journal;
  // The serve runtime runs the full robust stack: spin self-diagnosis and
  // consensus are on by default; the bootstrap ellipse is opt-in because of
  // its extra profile builds, and a long-running session is exactly where
  // the confidence region pays for itself.
  supCfg.locator.robust.bootstrap = true;
  auto sup = std::make_unique<runtime::Supervisor>(supCfg, deployment, &store);
  sup->addSession("reader0", factory);
  const auto restored = sup->restore();  // fresh start: kCheckpointMissing
  if (restored.hasValue()) {
    std::printf("resumed from checkpoint seq %llu (reader clock %.1f s)\n",
                static_cast<unsigned long long>(restored->sequence),
                restored->lastReportTimestampS);
  }

  const double tickS = 0.05;
  double nextStatusS = 0.0;
  bool killDone = killAt <= 0.0;
  for (double t = 0.0; t <= durationS + 2.0; t += tickS) {
    if (!killDone && t >= killAt * durationS) {
      killDone = true;
      std::printf("[%7.1f s] kill -9: dropping supervisor without "
                  "shutdown\n", t);
      sup.reset();  // no shutdown(): only the last checkpoint survives
      shared->close();
      sup = std::make_unique<runtime::Supervisor>(supCfg, deployment, &store);
      const auto res = sup->restore();
      if (res.hasValue()) {
        std::printf("[%7.1f s] restart: restored checkpoint seq %llu, "
                    "reader clock %.1f s\n", t,
                    static_cast<unsigned long long>(res->sequence),
                    res->lastReportTimestampS);
      } else {
        std::printf("[%7.1f s] restart: %s\n", t, res.error().message.c_str());
      }
      sup->addSession("reader0", factory);
    }
    sup->tick(t);
    if (t >= nextStatusS) {
      const runtime::ReaderSession& s = sup->session(0);
      std::printf("[%7.1f s] %-12s ingested %-7llu dups %-5llu ckpts %-4llu "
                  "disconnects %llu\n", t,
                  runtime::sessionStateName(s.state()),
                  static_cast<unsigned long long>(sup->stats().reportsIngested),
                  static_cast<unsigned long long>(
                      sup->stats().duplicatesSuppressed),
                  static_cast<unsigned long long>(sup->stats().checkpointsSaved),
                  static_cast<unsigned long long>(s.stats().disconnects));
      dumpTelemetry();
      nextStatusS += durationS / 10.0;
    }
  }
  // Locate with recovery BEFORE shutdown so the final checkpoint carries
  // the [last_fix] section (and any quarantined tag is cleared for re-spin
  // were the session to keep running).
  const auto fix = sup->locateAndRecover2D(durationS + 2.0);
  sup->shutdown(durationS + 2.0);

  if (fix.hasValue()) {
    const double dx = fix->fix.position.x - reader.x;
    const double dy = fix->fix.position.y - reader.y;
    std::printf("final fix: (%.3f, %.3f) m, grade %s, confidence %.2f, "
                "error %.1f cm\n",
                fix->fix.position.x, fix->fix.position.y,
                core::fixGradeName(fix->report.grade),
                fix->report.confidence,
                std::sqrt(dx * dx + dy * dy) * 100.0);
    const core::EstimationDiagnostics& est = fix->fix.estimation;
    std::printf("robust: %s, inlier fraction %.2f, %zu behind-origin "
                "ray(s), %llu quarantined / %llu re-spin(s)\n",
                est.consensusUsed ? "consensus" : "least squares",
                est.inlierFraction, est.behindOriginRays,
                static_cast<unsigned long long>(sup->stats().quarantinedSpins),
                static_cast<unsigned long long>(sup->stats().respinsRequested));
    if (est.ellipse) {
      std::printf("%.0f%% confidence ellipse: %.1f x %.1f cm, "
                  "orientation %.0f deg\n",
                  est.ellipse->confidenceLevel * 100.0,
                  est.ellipse->semiMajorM * 100.0,
                  est.ellipse->semiMinorM * 100.0,
                  geom::radToDeg(est.ellipse->orientationRad));
    }
  } else {
    std::printf("no fix: %s\n", fix.error().message.c_str());
  }
  dumpTelemetry();  // final export includes the end-of-run fix spans
  std::printf("checkpoint: %s (%llu saves)\n", ckptPath.c_str(),
              static_cast<unsigned long long>(sup->stats().checkpointsSaved));
  std::printf("telemetry: %s/metrics.prom and %s/metrics.json "
              "(`tagspin_cli stats --dir %s` to print)\n", dir.c_str(),
              dir.c_str(), dir.c_str());
  return fix.hasValue() ? 0 : 1;
}

/// record: a supervised serve run with the capture tap between the
/// transport and the session, persisting everything the session saw.
int cmdRecord(const Args& args) {
  const std::string dir = args.get("dir", ".");
  sim::ScenarioConfig sc;
  sc.seed = std::stoull(args.get("seed", "7"));
  sc.fixedChannel = true;
  const int rigCount = std::stoi(args.get("rigs", "3"));
  const double revolutions = std::stod(args.get("revolutions", "10"));
  const double period = 2.0 * std::numbers::pi / sc.rigOmegaRadPerS;
  const double durationS = revolutions * period;

  sim::World world = sim::makeRigRowWorld(sc, rigCount);
  const geom::Vec3 reader = parseVec3(args.get("reader", "0.8,2.0,0"));
  sim::placeReaderAntenna(world, 0, reader);

  sim::FlakyTransportConfig tc;
  tc.interrogate = {durationS, 0, sim::deriveSeed(sc.seed, 2)};
  tc.seed = sim::deriveSeed(sc.seed, 3);
  if (!args.has("no-outages")) {
    tc.events = sim::standardOutageScript(durationS, period,
                                          sim::deriveSeed(sc.seed, 4));
  }
  auto shared = std::make_shared<sim::FlakyTransport>(world, tc);

  const core::DeploymentFile deployment = eval::deploymentOf(world);
  {
    std::ofstream out(dir + "/deployment.txt");
    if (!out) throw std::runtime_error("cannot write " + dir);
    core::writeDeployment(out, deployment);
  }

  const std::string capPath = dir + "/capture.tspc";
  std::remove(capPath.c_str());
  capture::CaptureWriterConfig wc;
  wc.chunkReports = std::stoul(args.get("chunk-reports", "64"));
  wc.fsyncEveryChunks = std::stoul(args.get("fsync-every", "4"));
  capture::CaptureWriter writer(capPath, wc);
  std::printf("recording %d rigs for %.0f revolutions (%.0f s), %zu outage "
              "events, chunks of %zu reports\n", rigCount, revolutions,
              durationS, tc.events.size(), wc.chunkReports);

  runtime::SupervisorConfig supCfg;
  supCfg.session.queueCapacity = 2048;
  runtime::Supervisor sup(supCfg, deployment, nullptr);
  // Restarts mint a fresh tap over the same endpoint; one writer, one file.
  sup.addSession("reader0", [shared, &writer] {
    return std::make_unique<capture::RecordingTransport>(
        std::make_unique<runtime::SharedTransport>(shared), &writer);
  });
  for (double t = 0.0; t <= durationS + 2.0; t += 0.05) sup.tick(t);
  const auto fix = sup.tryLocate2D();
  sup.shutdown(durationS + 2.0);
  writer.close();

  const capture::CaptureWriterStats& ws = writer.stats();
  std::printf("capture: %llu reports in %llu chunks, %llu bytes, %llu "
              "fsyncs -> %s\n",
              static_cast<unsigned long long>(ws.reportsWritten),
              static_cast<unsigned long long>(ws.chunksWritten),
              static_cast<unsigned long long>(ws.bytesWritten),
              static_cast<unsigned long long>(ws.fsyncs), capPath.c_str());
  if (fix.hasValue()) {
    const double dx = fix->fix.position.x - reader.x;
    const double dy = fix->fix.position.y - reader.y;
    std::printf("final fix: (%.3f, %.3f) m, grade %s, error %.1f cm, "
                "digest %s\n",
                fix->fix.position.x, fix->fix.position.y,
                core::fixGradeName(fix->report.grade),
                std::sqrt(dx * dx + dy * dy) * 100.0,
                capture::digestHex(capture::fixDigest(*fix)).c_str());
  } else {
    std::printf("no fix: %s\n", fix.error().message.c_str());
  }
  std::printf("replay with: tagspin_cli replay --capture %s --deployment "
              "%s/deployment.txt\n", capPath.c_str(), dir.c_str());
  return fix.hasValue() ? 0 : 1;
}

/// replay: drive the runtime from a capture file.  One supervised session
/// by default; --fleet-sessions N fans the capture across a fleet.
int cmdReplay(const Args& args) {
  const std::string capPath = args.get("capture", "capture.tspc");
  std::ifstream dep(args.get("deployment", "deployment.txt"));
  if (!dep) throw std::runtime_error("cannot open deployment file");
  const core::DeploymentFile deployment = core::readDeployment(dep);
  const double speed = std::stod(args.get("speed", "1"));
  const size_t fleetSessions = std::stoul(args.get("fleet-sessions", "0"));

  capture::CaptureStats cs;
  const capture::TimedStream timed =
      capture::readCaptureFile(capPath, !args.has("strict"), &cs);
  std::printf("capture v%u.%u: %llu reports from %zu chunks (%zu skipped, "
              "%zu duplicated, %zu bytes resynced%s)\n", cs.versionMajor,
              cs.versionMinor,
              static_cast<unsigned long long>(cs.reportsRecovered),
              cs.chunksDecoded, cs.chunksSkipped, cs.chunksDuplicated,
              cs.bytesResynced,
              cs.headerRecovered ? ", header recovered" : "");
  if (timed.empty()) throw std::runtime_error("capture holds no reports");
  const auto stream = capture::makeReplayStream(timed);
  const double spanS = stream->releaseS.back();
  const double endS = (speed > 0.0 ? spanS / speed : 0.0) + 2.0;

  capture::ReplayTransportConfig rc;
  rc.speed = speed;

  if (fleetSessions > 0) {
    const size_t shards = std::stoul(args.get("shards", "4"));
    obs::MetricsRegistry metrics;
    runtime::FleetConfig fc = eval::FleetEvalConfig::defaultFleetConfig();
    fc.shards = shards;
    fc.maxSessions = fleetSessions;
    fc.metrics = &metrics;
    runtime::FleetManager fleet(fc, deployment);
    for (size_t i = 0; i < fleetSessions; ++i) {
      auto transport = std::make_shared<capture::ReplayTransport>(stream, rc);
      char name[24];
      std::snprintf(name, sizeof(name), "r%04zu", i);
      fleet.registerSession(name, [transport] {
        return std::make_unique<runtime::SharedTransport>(transport);
      });
    }
    std::printf("replaying %.1f s of capture at %gx into %zu sessions over "
                "%zu shards\n", spanS, speed, fleet.sessionCount(),
                fleet.shardCount());
    for (double t = 0.0; t <= endS + 1e-9; t += 0.1) fleet.tick(t);
    fleet.shutdown(endS);
    size_t withFix = 0;
    for (const auto& v : fleet.sessions()) {
      if (v.hasFix) ++withFix;
    }
    std::printf("fleet replay done: %zu/%zu sessions hold a fix, %llu "
                "reports ingested\n", withFix, fleet.sessionCount(),
                static_cast<unsigned long long>(
                    metrics.snapshot().counterValue(
                        "supervisor.reports_ingested")));
    return withFix == fleet.sessionCount() ? 0 : 1;
  }

  auto transport = std::make_shared<capture::ReplayTransport>(stream, rc);
  runtime::SupervisorConfig supCfg;
  supCfg.session.queueCapacity = 2048;
  runtime::Supervisor sup(supCfg, deployment, nullptr);
  sup.addSession("replay0", [transport] {
    return std::make_unique<runtime::SharedTransport>(transport);
  });
  std::printf("replaying %.1f s of capture at %gx\n", spanS, speed);
  for (double t = 0.0; t <= endS + 1e-9; t += 0.05) sup.tick(t);
  const auto fix = sup.tryLocate2D();
  sup.shutdown(endS);
  std::printf("%llu reports ingested (%zu delivered by the transport)\n",
              static_cast<unsigned long long>(sup.stats().reportsIngested),
              transport->framesDelivered());
  if (fix.hasValue()) {
    std::printf("replay fix: (%.3f, %.3f) m, grade %s, digest %s\n",
                fix->fix.position.x, fix->fix.position.y,
                core::fixGradeName(fix->report.grade),
                capture::digestHex(capture::fixDigest(*fix)).c_str());
  } else {
    std::printf("no fix: %s\n", fix.error().message.c_str());
  }
  return fix.hasValue() ? 0 : 1;
}

/// track: sequential tracking over the fix stream -- simulated patrol
/// evaluation by default, capture replay with --capture.
int cmdTrack(const Args& args) {
  if (args.has("capture")) {
    std::ifstream dep(args.get("deployment", "deployment.txt"));
    if (!dep) throw std::runtime_error("cannot open deployment file");
    const core::DeploymentFile deployment = core::readDeployment(dep);
    runtime::SupervisorConfig supCfg;
    supCfg.session.queueCapacity = 2048;
    const double intervalS = std::stod(args.get("interval", "2"));
    const eval::TrackReplayResult r = eval::runTrackReplay(
        args.get("capture", "capture.tspc"), deployment, supCfg, intervalS);
    std::printf("tracked replay: %zu fixes -> %zu track estimates, final "
                "state %s at (%.3f, %.3f) m\n", r.fixes, r.estimates,
                r.finalState.c_str(), r.finalX, r.finalY);
    std::printf("trajectory digest %016llx\n",
                static_cast<unsigned long long>(r.trajectoryDigest));
    return r.estimates > 0 ? 0 : 1;
  }

  eval::TrackEvalConfig cfg;
  cfg.windows = std::stoi(args.get("windows",
                                   std::to_string(cfg.windows)));
  cfg.rigCount = std::stoi(args.get("rigs",
                                    std::to_string(cfg.rigCount)));
  cfg.seed = std::stoull(args.get("seed", std::to_string(cfg.seed)));
  std::printf("tracking %d windows x %.1f s, %d rigs, %.2f m/s patrol, "
              "seed %llu\n", cfg.windows, cfg.windowS, cfg.rigCount,
              cfg.speedMps, static_cast<unsigned long long>(cfg.seed));
  const eval::TrackEvalResult r = eval::runTrackEval(cfg);
  std::printf("clean  : fix RMSE %.2f cm | track RMSE %.2f cm (%.2fx)\n",
              r.clean.fixRmseCm, r.clean.trackRmseCm, r.rmseRatio);
  std::printf("dropout: %d gaps + %d ghosts | track RMSE %.2f cm | %llu "
              "gate-rejects\n", r.dropout.gapWindows, r.dropout.ghostWindows,
              r.dropout.trackRmseCm,
              static_cast<unsigned long long>(r.dropout.stats.gateRejects));
  std::printf("outage : survived %s (final %s), coast max %.2f cm\n",
              r.outageSurvived ? "yes" : "NO",
              r.outage.finalState.c_str(), r.outage.coastMaxErrorCm);
  std::printf("replay : digest %016llx vs %016llx -> %s\n",
              static_cast<unsigned long long>(r.replayDigest1),
              static_cast<unsigned long long>(r.replayDigest2),
              r.replayDeterministic ? "bit-identical" : "MISMATCH");
  return (r.replayDeterministic && r.outageSurvived) ? 0 : 1;
}

int cmdStats(const Args& args) {
  const std::string dir = args.get("dir", ".");
  const std::string format = args.get("format", "json");
  if (format != "json" && format != "prom") {
    throw std::invalid_argument("--format must be prom or json");
  }
  const std::string path = dir + "/metrics." + format;
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("no telemetry export at " + path +
                             " (run `tagspin_cli serve --dir " + dir +
                             "` first)");
  }
  std::cout << in.rdbuf();
  printKernel(stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tagspin_cli <simulate|locate|inspect|serve|record|"
                 "replay|track|stats> [--flags]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parseArgs(argc, argv, 2);
    if (cmd == "simulate") return cmdSimulate(args);
    if (cmd == "locate") return cmdLocate(args);
    if (cmd == "inspect") return cmdInspect(args);
    if (cmd == "serve") return cmdServe(args);
    if (cmd == "record") return cmdRecord(args);
    if (cmd == "replay") return cmdReplay(args);
    if (cmd == "track") return cmdTrack(args);
    if (cmd == "stats") return cmdStats(args);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
