// ingest: the read and write path with no spectrum work.  Per seeded
// 3-rig stream of 10 revolutions with report faults (2% duplicates, 1%
// reorders, 0.2% clock glitches): record it with CaptureWriter into
// in-memory storage; the generator rots 1% of the chunks; read it back with
// decodeCaptureTolerant, build a ReplayStream, drain it through one
// ReplayTransport session into a Supervisor with a queue that drops
// nothing, save the checkpoint, and extract per-rig snapshots with
// collectObservationsRobust.  No fix is computed, so kernel changes must
// not move it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>

#include "capture/format.hpp"
#include "capture/replay.hpp"
#include "capture/writer.hpp"
#include "core/tagspin.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"
#include "mem_io.hpp"
#include "sim/faults.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tagspin;

constexpr int kRigs = 3;
constexpr double kRevolutions = 10.0;
// Distinct seeded streams, generated once and cycled through.
constexpr int kStreams = 3;
constexpr double kRotFraction = 0.01;
constexpr double kMinRecovered = 0.99;
// Replay at the original pace, ticked like the serve loop.  A clock glitch
// can trip the session's stuck-clock watchdog; the replay keeps releasing
// frames through the reconnect backoff, and only at real-time pace does
// that backlog stay far below the session queue's capacity, so the queue
// drops nothing.
constexpr double kReplaySpeed = 1.0;
constexpr double kTickS = 0.1;
constexpr double kProbeCadenceS = 0.04;
// Set-up takes under a microsecond, far below the time scale of the host's
// speed changes, so each set-up sample is the mean over a batch of
// constructions, taken between two probes of its own.  Each object is
// destroyed, untimed, before the next is built, so the allocator stays in
// its steady state.
constexpr int kSetupBatch = 4000;
const char* const kCapturePath = "capture.tspc";
const char* const kCheckpointPath = "ingest.ckpt";

struct Stream {
  core::DeploymentFile deployment;
  capture::TimedStream timed;
  uint64_t rotSeed = 0;
};

// Generator: one faulty reader stream, LLRP-quantised.
Stream makeStream(uint64_t seed, int index) {
  Stream s;
  sim::ScenarioConfig scenario;
  scenario.seed = sim::deriveSeed(seed, 10 + uint64_t(index));
  sim::World world = sim::makeRigRowWorld(scenario, kRigs);
  auto rng = sim::makeRng(sim::deriveSeed(seed, 20 + uint64_t(index)));
  sim::placeReaderAntenna(world, 0, sim::Region{}.sample(rng, false));
  s.deployment = deploymentOf(world);
  sim::InterrogateConfig ic;
  ic.durationS = kRevolutions * 2.0 * std::numbers::pi / scenario.rigOmegaRadPerS;
  ic.streamId = sim::deriveSeed(seed, 30 + uint64_t(index));
  const rfid::ReportStream clean = rfid::llrp::decodeStream(
      rfid::llrp::encodeStream(sim::interrogate(world, ic)));
  sim::FaultConfig faults;
  faults.seed = sim::deriveSeed(seed, 40 + uint64_t(index));
  faults.duplicateProb = 0.02;
  faults.reorderProb = 0.01;
  faults.timestampGlitchProb = 0.002;
  sim::FaultInjector injector(faults);
  s.timed = capture::withReaderTiming(injector.corruptReports(clean));
  s.rotSeed = sim::deriveSeed(seed, 50 + uint64_t(index));
  return s;
}

// Generator: flip one payload bit in kRotFraction of the chunks.
std::vector<uint8_t> rot(const std::string& image, uint64_t seed) {
  std::vector<uint8_t> bytes(image.begin(), image.end());
  std::vector<std::pair<size_t, size_t>> chunks;
  size_t off = capture::kFileHeaderSize;
  while (off + capture::kChunkHeaderSize <= bytes.size()) {
    const size_t len = (size_t(bytes[off + 4]) << 24) |
                       (size_t(bytes[off + 5]) << 16) |
                       (size_t(bytes[off + 6]) << 8) | size_t(bytes[off + 7]);
    if (off + capture::kChunkHeaderSize + len > bytes.size()) break;
    chunks.emplace_back(off, capture::kChunkHeaderSize + len);
    off += capture::kChunkHeaderSize + len;
  }
  auto rng = sim::makeRng(seed);
  std::shuffle(chunks.begin(), chunks.end(), rng);
  const size_t hit = std::max<size_t>(
      1, size_t(kRotFraction * double(chunks.size())));
  for (size_t i = 0; i < hit && i < chunks.size(); ++i) {
    const auto [start, size] = chunks[i];
    const size_t pos = start + capture::kChunkHeaderSize +
                       size_t(rng() % (size - capture::kChunkHeaderSize));
    bytes[pos] ^= uint8_t(1u << (rng() % 8));
  }
  return bytes;
}

runtime::SupervisorConfig supervisorConfig() {
  runtime::SupervisorConfig cfg;
  cfg.checkpointIntervalS = 0.0;  // saved once, explicitly, at the end
  cfg.checkpointSpectrumPoints = 0;
  return cfg;
}

// Program-side objects of one stream: the writer, the supervisor and the
// server.
struct Program {
  std::unique_ptr<capture::CaptureWriter> writer;
  std::unique_ptr<runtime::Supervisor> supervisor;
  std::unique_ptr<core::TagspinSystem> server;
};

Program setUp(const core::DeploymentFile& deployment, MemIoEnv& disk,
              obs::MetricsRegistry* registry) {
  Program p;
  capture::CaptureWriterConfig wc;
  wc.io = &disk;
  p.writer = std::make_unique<capture::CaptureWriter>(kCapturePath, wc);
  p.supervisor = std::make_unique<runtime::Supervisor>(supervisorConfig(),
                                                       deployment, nullptr);
  p.server = std::make_unique<core::TagspinSystem>();
  for (const auto& [epc, rig] : deployment.rigs) p.server->registerRig(epc, rig);
  if (registry != nullptr) p.server->setMetrics(registry);
  return p;
}

// Mean set-up time over one batch, raw seconds.
double timeSetUpBatch(const core::DeploymentFile& deployment) {
  double total = 0.0;
  for (int b = 0; b < kSetupBatch; ++b) {
    MemIoEnv disk;
    const double t0 = nowS();
    const Program p = setUp(deployment, disk, nullptr);
    total += nowS() - t0;
  }
  return total / kSetupBatch;
}

}  // namespace

RunResult runIngest(const RunConfig& config) {
  RunResult result;
  const double wallStart = nowS();
  Meter meter(config.part, config.nominal, kProbeCadenceS,
              config.elasticityOf("primary_op_ms"));
  for (const char* s : {"record", "capture.encode"}) {
    meter.setElasticity(s, config.elasticityOf("secondary_op_ms"));
  }
  meter.setElasticity("setup", config.elasticityOf("setup_s"));
  Tracer tracer(config.trace, meter);

  std::vector<Stream> streams;
  for (int i = 0; i < kStreams; ++i) streams.push_back(makeStream(config.seed, i));

  obs::MetricsRegistry registry;
  uint64_t recorded = 0, seen = 0, ingested = 0, duplicates = 0, queueDropped = 0;
  uint64_t chunksSkipped = 0, framesSkipped = 0, captureBytes = 0;
  uint64_t decodedWire = 0;
  uint64_t tracedReports = 0;  // reports of the units that carried spans
  std::vector<double> snapsPerRig;

  // One unit = one stream recorded and read back.  Unit 0 is the warm-up.
  const double measureStart = nowS();
  meter.probe();
  for (int unit = 0;; ++unit) {
    if (unit > 1 && nowS() - measureStart > config.seconds) break;
    const bool record = unit > 0;
    const Stream& stream = streams[size_t(unit) % streams.size()];
    tracer.setUnit(unit);
    // Odd traced units skip the spans: the untraced twin of each traced
    // read gives the tracing overhead.
    const bool spans = config.trace && record && unit % 2 == 0;
    Tracer quiet(false, meter);
    Tracer& tr = spans ? tracer : quiet;

    // A probe closed the previous unit; this one closes the set-up batch.
    const double setupS = timeSetUpBatch(stream.deployment);
    if (record) meter.add("setup", setupS);
    meter.probe();
    MemIoEnv disk;
    Program p = setUp(stream.deployment, disk,
                      config.trace && record ? &registry : nullptr);

    // --- record side ---
    double t0 = nowS();
    {
      auto s = tr.span("capture.encode");
      for (const capture::TimedReport& r : stream.timed) {
        p.writer->append(r.report, r.deliveryS);
      }
      p.writer->close();
    }
    if (record) meter.add("record", nowS() - t0);

    // --- generator: read the file back from memory and rot it ---
    std::string image;
    disk.readFile(kCapturePath, image);
    const std::vector<uint8_t> rotted = rot(image, stream.rotSeed);
    if (unit <= kStreams) {
      const std::vector<uint8_t> intact(image.begin(), image.end());
      capture::CaptureStats st;
      const capture::TimedStream tol = capture::decodeCaptureTolerant(intact, &st);
      const capture::TimedStream strict = capture::decodeCapture(intact);
      bool agree = tol.size() == strict.size() && st.chunksSkipped == 0 &&
                   strict.size() == stream.timed.size();
      for (size_t i = 0; agree && i < tol.size(); ++i) {
        agree = tol[i].report.timestampS == strict[i].report.timestampS &&
                tol[i].report.phaseRad == strict[i].report.phaseRad &&
                tol[i].report.epc == strict[i].report.epc &&
                tol[i].deliveryS == strict[i].deliveryS;
      }
      if (!agree) {
        result.failures.push_back(
            "ingest: strict and tolerant decodes of the intact capture differ");
      }
    }
    meter.maybeProbe();

    // --- read side ---
    t0 = nowS();
    capture::CaptureStats stats;
    std::vector<core::RigObservation> obs;
    const runtime::Supervisor& sup = *p.supervisor;
    std::shared_ptr<const capture::ReplayStream> replay;
    {
      auto s = tr.span("ingest.read");
      capture::TimedStream timed;
      {
        auto s2 = tr.span("capture.decode");
        timed = capture::decodeCaptureTolerant(rotted, &stats);
      }
      {
        auto s2 = tr.span("capture.replay_build");
        replay = capture::makeReplayStream(timed);
      }
      {
        auto s2 = tr.span("runtime.replay_drain");
        auto transport = std::make_shared<capture::ReplayTransport>(
            replay, capture::ReplayTransportConfig{kReplaySpeed, 0.0});
        p.supervisor->addSession("replay", [transport] {
          return std::make_unique<runtime::SharedTransport>(transport);
        });
        double t = 0.0;
        for (int settle = 0; settle < 3; t += kTickS) {
          p.supervisor->tick(t);
          if (transport->exhausted()) ++settle;
        }
        // Wind the session down, as a finished replay would.
        p.supervisor->shutdown(t);
      }
      {
        auto s2 = tr.span("runtime.checkpoint_save");
        runtime::CheckpointStore(kCheckpointPath, &disk)
            .save(sup.makeCheckpoint(0.0));
      }
      {
        auto s2 = tr.span("core.preprocess");
        obs = p.server->collectObservationsRobust(capture::stripTiming(timed));
      }
    }
    const double readS = nowS() - t0;
    if (record) meter.add(spans || !config.trace ? "read" : "read_untraced", readS);
    if (spans) {
      auto s = tr.span("rfid.llrp_decode");
      rfid::llrp::DecodeStats ds;
      decodedWire += rfid::llrp::decodeStreamTolerant(replay->wire, &ds).size();
      framesSkipped += ds.framesSkipped;
    }
    meter.maybeProbe();

    // --- checks ---
    // "Delivered" is what the session handed to its queue: a frame whose
    // glitched timestamp falls before the epoch cannot be carried by the
    // LLRP wire format and is rejected by the session's decoder instead.
    const runtime::SupervisorStats& ss = sup.stats();
    const runtime::ReaderSession& session = sup.session(0);
    const uint64_t rec = p.writer->stats().reportsWritten;
    const uint64_t delivered = session.stats().reportsEnqueued;
    const uint64_t dropped = session.queueStats().droppedOldest +
                             session.queueStats().droppedSampled +
                             session.queueStats().refusedFull;
    bool ok = true;
    const auto fail = [&](const std::string& why) {
      ok = false;
      result.failures.push_back("ingest: stream " + std::to_string(unit) + ": " + why);
    };
    if (rec != stream.timed.size()) fail("writer did not record every report");
    if (double(delivered) < kMinRecovered * double(rec)) {
      fail("recovered " + std::to_string(delivered) + " of " +
           std::to_string(rec) + " reports under 1% chunk rot");
    }
    if (ss.reportsSeen != delivered) {
      fail("supervisor saw " + std::to_string(ss.reportsSeen) + " of " +
           std::to_string(delivered) + " delivered reports");
    }
    if (ss.reportsIngested != ss.reportsSeen - ss.duplicatesSuppressed ||
        ss.unknownEpcDropped != 0 || ss.weakRssiDropped != 0) {
      fail("supervisor ingested != delivered - duplicates");
    }
    if (dropped != 0) fail("the ingest queue dropped reports");
    if (obs.size() != size_t(kRigs)) fail("robust extraction lost a rig");
    if (!record) continue;

    ++result.attempted;
    if (!ok) ++result.failed;
    recorded += rec;
    if (spans) tracedReports += rec;
    seen += ss.reportsSeen;
    ingested += ss.reportsIngested;
    duplicates += ss.duplicatesSuppressed;
    queueDropped += dropped;
    chunksSkipped += stats.chunksSkipped;
    captureBytes += image.size();
    for (const core::RigObservation& o : obs) {
      snapsPerRig.push_back(double(o.snapshots.size()));
    }
  }
  meter.probe();

  const double okFraction = recorded ? double(seen) / double(recorded) : 0.0;
  const double streamsDone = double(result.attempted);
  const double reportsPerStream = streamsDone > 0 ? double(recorded) / streamsDone : 0.0;
  const double readMedian = median(meter.normalized("read"));
  const double recordMedian = median(meter.normalized("record"));
  Metrics& d = result.detail;
  d["ingest.streams"] = {streamsDone, "count"};
  d["ingest_reports_per_s"] = {readMedian > 0 ? reportsPerStream / readMedian : 0.0, "1/s"};
  d["record_reports_per_s"] = {recordMedian > 0 ? reportsPerStream / recordMedian : 0.0, "1/s"};
  d["capture_bytes_per_report"] = {recorded ? double(captureBytes) / double(recorded) : 0.0, "B"};

  if (!config.trace) {
    reportTiming(meter, "read", "primary_op_ms", "ms", 1e3, false, result);
    reportTiming(meter, "record", "secondary_op_ms", "ms", 1e3, false, result);
    reportTiming(meter, "setup", "setup_s", "s", 1.0, false, result);
    result.metrics["ok_fraction"] = {okFraction, "fraction"};
    result.metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    addHostMetrics(meter, nowS() - wallStart, config.trace, result);
    return result;
  }

  Metrics m;
  const auto perReport = [&](const char* s) {
    return tracedReports ? 1e9 * meter.sumNormalized(s) / double(tracedReports) : 0.0;
  };
  m["capture.encode_ns_per_report"] = {perReport("capture.encode"), "ns"};
  m["capture.decode_ns_per_report"] = {perReport("capture.decode"), "ns"};
  m["capture.replay_build_ns_per_report"] = {perReport("capture.replay_build"), "ns"};
  m["runtime.replay_drain_ns_per_report"] = {perReport("runtime.replay_drain"), "ns"};
  m["core.preprocess_ns_per_report"] = {perReport("core.preprocess"), "ns"};
  if (decodedWire > 0) {
    m["rfid.llrp_decode_ns_per_report"] = {
        1e9 * meter.sumNormalized("rfid.llrp_decode") / double(decodedWire), "ns"};
  }
  m["runtime.checkpoint_save_ms"] = {
      1e3 * median(meter.normalized("runtime.checkpoint_save")), "ms"};
  m["core.snapshots_per_rig"] = {median(snapsPerRig), "count"};
  // Counts are per recorded stream, so runs of different length compare.
  const double perStream = streamsDone > 0 ? 1.0 / streamsDone : 0.0;
  const obs::MetricsSnapshot snap = registry.snapshot();
  m["core.phase_outliers_dropped"] = {
      double(snap.counterValue("preprocess.phase_outliers_dropped")) * perStream, "count"};
  m["runtime.reports_ingested"] = {double(ingested) * perStream, "count"};
  m["runtime.duplicates_suppressed"] = {double(duplicates) * perStream, "count"};
  m["runtime.queue_dropped"] = {double(queueDropped) * perStream, "count"};
  m["runtime.ingest_useful_ratio"] = {seen ? double(ingested) / double(seen) : 0.0, "fraction"};
  m["rfid.frames_skipped"] = {double(framesSkipped) * perStream, "count"};
  m["capture.chunks_skipped"] = {double(chunksSkipped) * perStream, "count"};
  const double untraced = median(meter.normalized("read_untraced"));
  const double traced = median(meter.normalized("ingest.read"));
  if (untraced > 0.0) m["obs.trace_overhead_fraction"] = {traced / untraced - 1.0, "fraction"};
  m["ingest_reports_per_s"] = {traced > 0 ? reportsPerStream / traced : 0.0, "1/s"};
  m["record_reports_per_s"] = {d["record_reports_per_s"].value, "1/s"};
  m["capture_bytes_per_report"] = {d["capture_bytes_per_report"].value, "B"};
  m["failed_fraction"] = {recorded ? 1.0 - double(ingested + duplicates) / double(recorded) : 0.0, "fraction"};
  m["host.raw.primary_op_ms"] = {1e3 * median(meter.raw("ingest.read")), "ms"};
  m["host.raw.secondary_op_ms"] = {1e3 * median(meter.raw("record")), "ms"};
  m["host.raw.setup_s"] = {median(meter.raw("setup")), "s"};
  result.metrics = std::move(m);
  if (!config.spansPath.empty()) tracer.write(config.spansPath);
  addHostMetrics(meter, nowS() - wallStart, config.trace, result);
  return result;
}

}  // namespace perfbench
