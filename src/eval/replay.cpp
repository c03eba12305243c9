#include "eval/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numbers>
#include <sstream>
#include <vector>

#include "capture/digest.hpp"
#include "capture/record.hpp"
#include "capture/replay.hpp"
#include "capture/writer.hpp"
#include "eval/fleet.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "rfid/llrp.hpp"
#include "runtime/fleet.hpp"
#include "sim/flaky_transport.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

double hostSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Chunk extents of an intact capture image (trusted lengths -- callers run
/// this on a file the harness just wrote and strictly validated).
std::vector<std::pair<size_t, size_t>> chunkSpans(
    std::span<const uint8_t> bytes) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t off = capture::kFileHeaderSize;
  while (off + capture::kChunkHeaderSize <= bytes.size()) {
    const size_t payloadLen = (size_t(bytes[off + 4]) << 24) |
                              (size_t(bytes[off + 5]) << 16) |
                              (size_t(bytes[off + 6]) << 8) |
                              size_t(bytes[off + 7]);
    const size_t size = capture::kChunkHeaderSize + payloadLen;
    if (off + size > bytes.size()) break;
    spans.emplace_back(off, size);
    off += size;
  }
  return spans;
}

}  // namespace

runtime::SupervisorConfig ReplayEvalConfig::defaultSupervisorConfig() {
  runtime::SupervisorConfig sup;
  // Same queue posture as the soak harness: small enough that replayed
  // flood bursts exercise the backpressure policy too.
  sup.session.queueCapacity = 2048;
  sup.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  return sup;
}

namespace {

/// Drive one supervised session from a persistent transport for `endS`
/// simulated seconds and extract the fix.  The transport is shared across
/// supervisor-level session restarts (SharedTransport), exactly as a live
/// reconnect reuses the reader.
ReplayArmResult runArm(const ReplayEvalConfig& config,
                       const core::DeploymentFile& deployment,
                       std::shared_ptr<runtime::Transport> transport,
                       double endS, const geom::Vec3& truth) {
  ReplayArmResult arm;
  obs::MetricsRegistry registry;
  runtime::SupervisorConfig supCfg = config.supervisor;
  supCfg.metrics = &registry;
  runtime::Supervisor sup(supCfg, deployment, nullptr);
  sup.addSession("reader0", [transport] {
    return std::make_unique<runtime::SharedTransport>(transport);
  });
  for (double t = 0.0; t <= endS + 1e-9; t += config.tickS) sup.tick(t);
  sup.shutdown(endS);

  const auto fix = sup.tryLocate2D();
  arm.ok = fix.hasValue();
  if (fix.hasValue()) {
    arm.errorCm = errorCm(fix->fix.position, {truth.x, truth.y}).combined;
    arm.positionX = fix->fix.position.x;
    arm.positionY = fix->fix.position.y;
    arm.fixDigest = capture::fixDigest(*fix);
    arm.grade = core::fixGradeName(fix->report.grade);
  } else {
    arm.failure = core::errorCodeName(fix.code());
  }
  arm.reportsIngested =
      registry.snapshot().counterValue("supervisor.reports_ingested");
  return arm;
}

ReplayArmResult runReplayArm(const ReplayEvalConfig& config,
                             const core::DeploymentFile& deployment,
                             std::shared_ptr<const capture::ReplayStream> s,
                             double speed, const geom::Vec3& truth) {
  capture::ReplayTransportConfig rc;
  rc.speed = speed;
  rc.connectDelayS = config.connectDelayS;
  auto transport = std::make_shared<capture::ReplayTransport>(s, rc);
  const double spanS = s->releaseS.empty() ? 0.0 : s->releaseS.back();
  const double endS = spanS / (speed > 0.0 ? speed : 1.0) +
                      config.connectDelayS + config.settleS;
  return runArm(config, deployment, transport, endS, truth);
}

}  // namespace

ReplayEvalResult runReplayEval(const ReplayEvalConfig& config) {
  ReplayEvalResult result;

  const double period =
      2.0 * std::numbers::pi / config.scenario.rigOmegaRadPerS;
  const double durationS = config.revolutions * period;
  const double endS = durationS + config.settleS;

  sim::World world = sim::makeRigRowWorld(config.scenario, config.rigCount);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  const geom::Vec3 truth = config.region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);
  const core::DeploymentFile deployment = deploymentOf(world);

  sim::FlakyTransportConfig tc;
  tc.interrogate = {durationS, 0, sim::deriveSeed(config.seed, 2)};
  tc.connectDelayS = config.connectDelayS;
  tc.seed = sim::deriveSeed(config.seed, 3);
  tc.events = sim::standardOutageScript(durationS, period,
                                        sim::deriveSeed(config.seed, 4));

  const std::string capturePath = config.capturePath.empty()
                                      ? "replay_capture.tspc"
                                      : config.capturePath;
  std::remove(capturePath.c_str());

  // --- LIVE arm: supervised flaky session with the recording tap. ---
  {
    capture::CaptureWriterConfig wc;
    wc.chunkReports = config.chunkReports;
    capture::CaptureWriter writer(capturePath, wc);
    auto shared = std::make_shared<sim::FlakyTransport>(world, tc);

    obs::MetricsRegistry registry;
    runtime::SupervisorConfig supCfg = config.supervisor;
    supCfg.metrics = &registry;
    runtime::Supervisor sup(supCfg, deployment, nullptr);
    // Restarts mint a fresh tap (fresh decoder state, like a new socket)
    // over the same shared endpoint, all appending to one capture.
    sup.addSession("reader0", [shared, &writer] {
      return std::make_unique<capture::RecordingTransport>(
          std::make_unique<runtime::SharedTransport>(shared), &writer);
    });
    for (double t = 0.0; t <= endS + 1e-9; t += config.tickS) sup.tick(t);
    sup.shutdown(endS);
    writer.close();

    const auto fix = sup.tryLocate2D();
    result.liveOk = fix.hasValue();
    if (fix.hasValue()) {
      result.liveErrorCm =
          errorCm(fix->fix.position, {truth.x, truth.y}).combined;
      result.livePositionX = fix->fix.position.x;
      result.livePositionY = fix->fix.position.y;
      result.liveFixDigest = capture::fixDigest(*fix);
      result.liveGrade = core::fixGradeName(fix->report.grade);
    }
    result.liveReportsIngested =
        registry.snapshot().counterValue("supervisor.reports_ingested");
    result.reportsCaptured = writer.stats().reportsWritten;
    result.chunksCaptured = writer.stats().chunksWritten;
  }

  // --- Read the capture back (strict + tolerant must agree). ---
  std::vector<uint8_t> image;
  {
    std::ifstream in(capturePath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string s = buf.str();
    image.assign(s.begin(), s.end());
  }
  result.captureBytes = image.size();
  if (result.reportsCaptured > 0) {
    result.bytesPerReport =
        double(image.size()) / double(result.reportsCaptured);
  }

  capture::CaptureStats intactStats;
  const capture::TimedStream tolerant =
      capture::decodeCaptureTolerant(image, &intactStats);
  const capture::TimedStream strict = capture::decodeCapture(image);
  result.captureIntact =
      intactStats.chunksSkipped == 0 && !intactStats.headerRecovered &&
      capture::streamDigest(capture::stripTiming(tolerant)) ==
          capture::streamDigest(capture::stripTiming(strict)) &&
      strict.size() == result.reportsCaptured;

  const auto stream = capture::makeReplayStream(strict);

  // --- REPLAY arms: 1x parity with the live run, twice for determinism. ---
  result.replay1 = runReplayArm(config, deployment, stream, 1.0, truth);
  result.replay2 = runReplayArm(config, deployment, stream, 1.0, truth);
  result.replayDeterministic = result.replay1.ok && result.replay2.ok &&
                               result.replay1.fixDigest ==
                                   result.replay2.fixDigest;
  if (result.liveOk && result.replay1.ok) {
    result.fixParityExact =
        result.replay1.fixDigest == result.liveFixDigest;
    result.fixParityCm =
        errorCm({result.replay1.positionX, result.replay1.positionY},
                {result.livePositionX, result.livePositionY})
            .combined;
  }

  // --- Throughput: the full replay pipeline, as fast as it will go. ---
  {
    const auto start = std::chrono::steady_clock::now();
    capture::CaptureStats st;
    const capture::TimedStream timed =
        capture::decodeCaptureTolerant(image, &st);
    const auto fast = capture::makeReplayStream(timed);
    capture::ReplayTransport transport(fast, {.speed = 0.0});
    transport.connect(0.0);
    const runtime::TransportRead read = transport.poll(0.0);
    rfid::llrp::TolerantStreamDecoder decoder;
    const rfid::ReportStream out = decoder.feed(read.bytes);
    result.replayWallS = hostSeconds(start);
    if (result.replayWallS > 0.0) {
      result.replayThroughputRps = double(out.size()) / result.replayWallS;
    }
  }

  // --- CORRUPTION pass: flip a bit in ~corruptFraction of the chunks. ---
  {
    const auto spans = chunkSpans(image);
    std::vector<uint8_t> corrupted = image;
    size_t hit = std::max<size_t>(
        1, size_t(config.corruptFraction * double(spans.size())));
    hit = std::min(hit, spans.size());
    auto crng = sim::makeRng(sim::deriveSeed(config.seed, 9));
    std::vector<size_t> order(spans.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), crng);
    for (size_t i = 0; i < hit; ++i) {
      const auto [off, size] = spans[order[i]];
      // Flip inside the payload; the chunk dies to its payload CRC.
      const size_t pos = off + capture::kChunkHeaderSize +
                         size_t(crng() % (size - capture::kChunkHeaderSize));
      corrupted[pos] ^= uint8_t(1u << (crng() % 8));
    }
    result.chunksCorrupted = hit;

    const capture::TimedStream recovered =
        capture::decodeCaptureTolerant(corrupted, &result.corruptStats);
    if (result.reportsCaptured > 0) {
      result.recoveryRate =
          double(recovered.size()) / double(result.reportsCaptured);
    }
    result.corruptReplay = runReplayArm(
        config, deployment, capture::makeReplayStream(recovered), 1.0, truth);
  }

  // --- FLEET load generation: fan the capture across N sessions. ---
  if (config.fleetSessions > 0) {
    obs::MetricsRegistry registry;
    runtime::FleetConfig fc = FleetEvalConfig::defaultFleetConfig();
    fc.shards = config.fleetShards;
    fc.metrics = &registry;
    fc.checkpointDir.clear();
    fc.checkpointIntervalS = 0.0;

    runtime::FleetManager fleet(fc, deployment);
    capture::ReplayTransportConfig rc;
    rc.speed = config.fleetSpeed;
    std::vector<std::shared_ptr<capture::ReplayTransport>> transports;
    for (size_t i = 0; i < config.fleetSessions; ++i) {
      auto transport = std::make_shared<capture::ReplayTransport>(stream, rc);
      transports.push_back(transport);
      fleet.registerSession("replay" + std::to_string(i), [transport] {
        return std::make_unique<runtime::SharedTransport>(transport);
      });
    }

    const double spanS = stream->releaseS.empty() ? 0.0
                                                  : stream->releaseS.back();
    const double fleetEndS = spanS / config.fleetSpeed + config.settleS;
    const auto start = std::chrono::steady_clock::now();
    for (double t = 0.0; t <= fleetEndS + 1e-9; t += config.fleetTickS) {
      fleet.tick(t);
    }
    fleet.shutdown(fleetEndS);
    result.fleetWallS = hostSeconds(start);

    result.fleetSessions = fleet.sessionCount();
    result.fleetShards = fleet.shardCount();
    for (const runtime::FleetManager::SessionView& view : fleet.sessions()) {
      if (view.hasFix) ++result.fleetSessionsWithFix;
    }
    if (result.fleetSessions > 0) {
      result.fleetFixRate = double(result.fleetSessionsWithFix) /
                            double(result.fleetSessions);
    }
    result.fleetReportsIngested =
        registry.snapshot().counterValue("supervisor.reports_ingested");
    if (result.fleetWallS > 0.0) {
      result.fleetThroughputRps =
          double(result.fleetReportsIngested) / result.fleetWallS;
    }
  }

  return result;
}

std::string replayJson(const ReplayEvalResult& result) {
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
  const auto text = [&](const char* key, const std::string& v) {
    out << "  \"" << key << "\": \"" << v << "\",\n";
  };
  boolean("live_ok", result.liveOk);
  num("live_error_cm", result.liveErrorCm);
  text("live_fix_digest", capture::digestHex(result.liveFixDigest));
  text("live_grade", result.liveGrade);
  num("live_reports_ingested", double(result.liveReportsIngested));
  num("reports_captured", double(result.reportsCaptured));
  num("chunks_captured", double(result.chunksCaptured));
  num("capture_bytes", double(result.captureBytes));
  num("bytes_per_report", result.bytesPerReport);
  boolean("capture_intact", result.captureIntact);
  boolean("replay_ok", result.replay1.ok);
  num("replay_error_cm", result.replay1.errorCm);
  text("replay_fix_digest", capture::digestHex(result.replay1.fixDigest));
  text("replay_fix_digest2", capture::digestHex(result.replay2.fixDigest));
  boolean("replay_deterministic", result.replayDeterministic);
  boolean("fix_parity_exact", result.fixParityExact);
  num("fix_parity_cm", result.fixParityCm);
  num("replay_wall_s", result.replayWallS);
  num("replay_throughput_rps", result.replayThroughputRps);
  num("chunks_corrupted", double(result.chunksCorrupted));
  num("corrupt_chunks_skipped", double(result.corruptStats.chunksSkipped));
  num("corrupt_bytes_resynced", double(result.corruptStats.bytesResynced));
  num("recovery_rate", result.recoveryRate);
  boolean("corrupt_replay_ok", result.corruptReplay.ok);
  num("corrupt_replay_error_cm", result.corruptReplay.errorCm);
  num("fleet_sessions", double(result.fleetSessions));
  num("fleet_shards", double(result.fleetShards));
  num("fleet_sessions_with_fix", double(result.fleetSessionsWithFix));
  num("fleet_fix_rate", result.fleetFixRate);
  num("fleet_reports_ingested", double(result.fleetReportsIngested));
  num("fleet_wall_s", result.fleetWallS);
  num("fleet_throughput_rps", result.fleetThroughputRps, false);
  out << "}\n";
  return out.str();
}

}  // namespace tagspin::eval
