#include "eval/crash.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "capture/digest.hpp"
#include "capture/format.hpp"
#include "capture/writer.hpp"
#include "core/io_env.hpp"
#include "obs/export.hpp"
#include "core/serialization.hpp"
#include "runtime/checkpoint.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

// All workload paths are bare names: their shared parent is "." and one
// syncDir(".") seals every directory mutation, exactly like a checkpoint
// directory on a rig.
constexpr const char* kCheckpointPath = "calib.ckpt";
constexpr const char* kCapturePath = "session.tspc";

// The workloads' fixed sizes (see CrashExploreConfig).
constexpr size_t kCheckpointSaves = 10;
constexpr size_t kChunkReports = 8;
constexpr size_t kFsyncEveryChunks = 2;
constexpr size_t kReopenExtraReports = 10;
constexpr size_t kFleetShards = 3;
constexpr size_t kFleetRounds = 4;
constexpr size_t kPersistSeeds = 4;

std::string fleetPath(size_t shard) {
  return "fleet_shard" + std::to_string(shard) + ".ckpt";
}

// ---------------------------------------------------------------------------
// Workload inputs

core::CalibrationCheckpoint makeCheckpoint(uint64_t sequence) {
  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = sequence;
  ckpt.wallTimeS = 10.0 * static_cast<double>(sequence);
  ckpt.lastReportTimestampS = ckpt.wallTimeS - 0.5;
  core::TagCalibrationProgress progress;
  for (uint64_t i = 0; i < sequence % 3 + 2; ++i) {
    core::Snapshot s;
    s.timeS = 0.5 * static_cast<double>(i);
    s.phaseRad = 0.25 * static_cast<double>(i + sequence);
    s.lambdaM = 0.328;
    s.channel = static_cast<int>(i % 3);
    s.rssiDbm = -60.0 - static_cast<double>(i);
    progress.snapshots.push_back(s);
  }
  ckpt.tags[rfid::Epc::forSimulatedTag(0)] = progress;
  return ckpt;
}

/// Quantization-exact reports (every field on the wire grid), so strict
/// decode equality is byte-for-byte, not epsilon.
capture::TimedStream quantizedStream(size_t n, int64_t startUs) {
  capture::TimedStream out;
  for (size_t i = 0; i < n; ++i) {
    capture::TimedReport tr;
    tr.report.epc = rfid::Epc::forSimulatedTag(static_cast<uint32_t>(i % 3));
    const int64_t us = startUs + static_cast<int64_t>(i) * 2500;
    tr.report.timestampS = static_cast<double>(us) / 1e6;
    tr.report.phaseRad = static_cast<double>((i * 37) % 4096) / 4096.0 * 2.0 *
                         std::numbers::pi;
    tr.report.rssiDbm =
        static_cast<double>(-6000 - static_cast<int>(i)) / 100.0;
    tr.report.channelIndex = static_cast<int>(i % 16);
    tr.report.frequencyHz = static_cast<double>(902750 + 500 * (i % 16)) * 1e3;
    tr.report.antennaPort = static_cast<int>(i % 4);
    tr.deliveryS = static_cast<double>(us + 800) / 1e6;
    out.push_back(tr);
  }
  return out;
}

/// `got` must be exactly the first got.size() reports of `want`.
std::optional<std::string> comparePrefix(const capture::TimedStream& want,
                                         const capture::TimedStream& got) {
  if (got.size() > want.size()) {
    return "decoded " + std::to_string(got.size()) + " reports, only " +
           std::to_string(want.size()) + " were ever appended";
  }
  const capture::TimedStream head(want.begin(), want.begin() + got.size());
  if (capture::streamDigest(capture::stripTiming(head)) !=
      capture::streamDigest(capture::stripTiming(got))) {
    return "decoded reports diverge from the appended stream";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].deliveryS != head[i].deliveryS) {
      return "delivery timing diverges at report " + std::to_string(i);
    }
  }
  return std::nullopt;
}

/// Strictly-valid prefix of a capture image, decoded (empty on a file whose
/// header never survived).
capture::TimedStream decodeStrictPrefix(const std::string& bytesStr) {
  const std::vector<uint8_t> bytes(bytesStr.begin(), bytesStr.end());
  const capture::PrefixScan scan = capture::scanValidPrefix(bytes);
  if (!scan.headerValid) return {};
  return capture::decodeCapture(std::span(bytes.data(), scan.validBytes));
}

// ---------------------------------------------------------------------------
// The old-or-new oracle for durably-replaced files.
//
// The acceptable set holds the last acked contents plus every in-flight
// candidate whose save was started but never acknowledged (a crash can land
// before or after the rename, so both are legal).  An acked save collapses
// the set to exactly the new contents; until the first ack the file may
// also be missing entirely.

class DurableFileOracle {
 public:
  void beginSave(const std::string& framed) {
    acceptable_.insert(framed);
    lastAcked_ = false;
  }
  void ackSave(const std::string& framed) {
    acceptable_.clear();
    acceptable_.insert(framed);
    missingOk_ = false;
    lastAcked_ = true;
  }
  bool lastAcked() const { return lastAcked_; }

  std::optional<std::string> checkBytes(const sim::DiskImage& image,
                                        const std::string& path) const {
    const auto it = image.find(path);
    if (it == image.end()) {
      if (!missingOk_) return path + ": durably acked file is missing";
      return std::nullopt;
    }
    if (acceptable_.count(it->second) == 0) {
      return path + ": contents (" + std::to_string(it->second.size()) +
             " bytes) are bit-identical to neither the old checkpoint nor "
             "any in-flight new one";
    }
    return std::nullopt;
  }

  /// Only meaningful on a live (non-crashed) image: after an acked save the
  /// tmp was consumed by the rename, whatever faults earlier saves hit.
  std::optional<std::string> checkNoTmpLitter(const sim::DiskImage& image,
                                              const std::string& path) const {
    if (lastAcked_ && image.count(path + ".tmp") > 0) {
      return path + ".tmp: litter left behind after an acked save";
    }
    return std::nullopt;
  }

 private:
  std::set<std::string> acceptable_;
  bool missingOk_ = true;
  bool lastAcked_ = false;
};

// ---------------------------------------------------------------------------
// Workloads.  One instance = one execution: run() drives the real writers
// against the injected environment while the oracle tracks what was acked;
// check() mounts a post-crash image and runs *real* recovery against it.
// check() must be idempotent -- the explorer calls it once per persistence
// variant of the same crash.

class WorkloadRun {
 public:
  virtual ~WorkloadRun() = default;
  virtual void run(sim::SimIoEnv& env) = 0;
  virtual std::optional<std::string> check(
      const sim::DiskImage& image) const = 0;
  /// Stronger check for runs that completed without a power cut.
  virtual std::optional<std::string> checkLive(
      const sim::DiskImage& image) const {
    return check(image);
  }
};

using WorkloadFactory = std::function<std::unique_ptr<WorkloadRun>()>;

class CheckpointWorkload final : public WorkloadRun {
 public:
  explicit CheckpointWorkload(size_t saves) : saves_(saves) {}

  void run(sim::SimIoEnv& env) override {
    runtime::CheckpointStore store(kCheckpointPath, &env);
    for (size_t i = 0; i < saves_; ++i) {
      const core::CalibrationCheckpoint ckpt = makeCheckpoint(i + 1);
      const std::string framed =
          runtime::CheckpointStore::frame(core::checkpointToString(ckpt));
      oracle_.beginSave(framed);
      try {
        store.save(ckpt);
      } catch (const std::exception&) {
        continue;  // injected fault; the supervisor retries next interval
      }
      oracle_.ackSave(framed);
    }
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    if (auto bad = oracle_.checkBytes(image, kCheckpointPath)) return bad;
    if (image.count(kCheckpointPath) > 0) {
      sim::SimIoEnv recovery(image);
      const runtime::CheckpointStore store(kCheckpointPath, &recovery);
      if (!store.load().hasValue()) {
        return std::string(kCheckpointPath) +
               ": recovery load failed on an old-or-new image";
      }
    }
    return std::nullopt;
  }

  std::optional<std::string> checkLive(
      const sim::DiskImage& image) const override {
    if (auto bad = check(image)) return bad;
    return oracle_.checkNoTmpLitter(image, kCheckpointPath);
  }

 private:
  size_t saves_;
  DurableFileOracle oracle_;
};

class CaptureWorkload final : public WorkloadRun {
 public:
  /// `base` is the strictly-valid decoded prefix of the starting image
  /// (empty for a fresh file); `fileAlreadyDurable` says the directory
  /// entry predates this run.
  CaptureWorkload(capture::TimedStream toAppend, capture::TimedStream base,
                  bool fileAlreadyDurable)
      : toAppend_(std::move(toAppend)),
        base_(std::move(base)),
        fileDurable_(fileAlreadyDurable),
        ackedReports_(base_.size()) {}

  void run(sim::SimIoEnv& env) override {
    capture::CaptureWriterConfig wc;
    wc.chunkReports = kChunkReports;
    wc.fsyncEveryChunks = kFsyncEveryChunks;
    wc.io = &env;
    // Local on purpose: if a power cut unwinds out of here, the writer's
    // destructor must run while `env` is still alive.
    capture::CaptureWriter writer(kCapturePath, wc);
    fileDurable_ = true;  // ctor sealed the entry (header fsync + dirsync)
    uint64_t lastFsyncs = writer.stats().fsyncs;
    for (const capture::TimedReport& tr : toAppend_) {
      appended_.push_back(tr);
      writer.append(tr.report, tr.deliveryS);
      // An fsync inside append covers every report framed before it.
      if (writer.stats().fsyncs > lastFsyncs) {
        lastFsyncs = writer.stats().fsyncs;
        ackedReports_ = base_.size() + writer.stats().reportsWritten;
      }
    }
    writer.close();
    ackedReports_ = base_.size() + writer.stats().reportsWritten;
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    capture::TimedStream expected = base_;
    expected.insert(expected.end(), appended_.begin(), appended_.end());

    const auto it = image.find(kCapturePath);
    if (it == image.end()) {
      if (fileDurable_ || ackedReports_ > 0) {
        return std::string(kCapturePath) +
               ": capture vanished after its creation was dirsynced";
      }
      return std::nullopt;
    }
    const std::vector<uint8_t> bytes(it->second.begin(), it->second.end());

    capture::TimedStream prefix;
    try {
      capture::CaptureStats stats;
      (void)capture::decodeCaptureTolerant(bytes, &stats);  // must not throw
      prefix = decodeStrictPrefix(it->second);
    } catch (const std::exception& e) {
      return std::string("recovery decode failed: ") + e.what();
    }
    if (prefix.size() < ackedReports_) {
      return "fsync-acked reports lost: decoded " +
             std::to_string(prefix.size()) + " < acked " +
             std::to_string(ackedReports_);
    }
    if (auto bad = comparePrefix(expected, prefix)) return bad;

    // Reopen on the crashed disk, append, close: the real recovery path
    // must resume without corrupting the chunks that survived.
    const capture::TimedStream extra =
        quantizedStream(kReopenExtraReports, 900'000'000);
    sim::SimIoEnv recovery(image);
    try {
      capture::CaptureWriterConfig wc;
      wc.chunkReports = kChunkReports;
      wc.fsyncEveryChunks = 1;
      wc.io = &recovery;
      capture::CaptureWriter writer(kCapturePath, wc);
      for (const capture::TimedReport& tr : extra) {
        writer.append(tr.report, tr.deliveryS);
      }
      writer.close();
    } catch (const std::exception& e) {
      return std::string("reopen on crashed image failed: ") + e.what();
    }
    const sim::DiskImage after = recovery.liveImage();
    capture::TimedStream expect2 = prefix;
    expect2.insert(expect2.end(), extra.begin(), extra.end());
    try {
      const std::vector<uint8_t> finalBytes(after.at(kCapturePath).begin(),
                                            after.at(kCapturePath).end());
      const capture::TimedStream finalStream =
          capture::decodeCapture(finalBytes);
      if (finalStream.size() != expect2.size()) {
        return "reopen+extend kept " + std::to_string(finalStream.size()) +
               " reports, want " + std::to_string(expect2.size());
      }
      if (auto bad = comparePrefix(expect2, finalStream)) {
        return "after reopen+extend: " + *bad;
      }
    } catch (const std::exception& e) {
      return std::string("reopen-extended capture failed strict decode: ") +
             e.what();
    }
    return std::nullopt;
  }

 private:
  capture::TimedStream toAppend_;
  capture::TimedStream base_;
  capture::TimedStream appended_;
  bool fileDurable_;
  size_t ackedReports_;
};

/// The durable-replace recipe under test in the fleet fan-out workload; the
/// broken variant (below) is the planted bug the harness must catch.
using DurableWriteFn = void (*)(core::IoEnv&, const std::string&,
                                const std::string&);

void correctDurableWrite(core::IoEnv& io, const std::string& path,
                         const std::string& contents) {
  core::writeFileDurable(io, path, contents);
}

/// The classic ordering bug: tmp + rename + dirsync but NO data fsync.
/// Survives every process-kill test (the page cache hides it) and loses the
/// file's contents when power dies with the pages still dirty.
void brokenDurableWrite(core::IoEnv& io, const std::string& path,
                        const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const core::IoStatus fd = core::openRetry(io, tmp, core::OpenMode::kTruncate);
  if (!fd.ok()) throw std::runtime_error("broken write: open failed");
  const int handle = static_cast<int>(fd.value);
  core::IoStatus st =
      core::writeAllRetry(io, handle, contents.data(), contents.size());
  if (!st.ok()) {
    io.close(handle);
    io.remove(tmp);
    throw std::runtime_error("broken write: write failed");
  }
  st = io.close(handle);
  if (!st.ok()) {
    io.remove(tmp);
    throw std::runtime_error("broken write: close failed");
  }
  st = io.rename(tmp, path);
  if (!st.ok()) {
    io.remove(tmp);
    throw std::runtime_error("broken write: rename failed");
  }
  st = core::syncDirRetry(io, core::parentDir(path));
  if (!st.ok()) throw std::runtime_error("broken write: dirsync failed");
}

/// Shards x rounds of framed durable writes with the per-shard
/// std::exception catch FleetManager::writeShardCheckpoint uses (disk
/// trouble must not kill the tick).  SimCrash is deliberately not a
/// std::exception, so a power cut is never absorbed by that handler.
class FleetFanoutWorkload final : public WorkloadRun {
 public:
  FleetFanoutWorkload(size_t shards, size_t rounds, DurableWriteFn write)
      : shards_(shards), rounds_(rounds), write_(write), oracles_(shards) {}

  void run(sim::SimIoEnv& env) override {
    for (size_t r = 0; r < rounds_; ++r) {
      for (size_t k = 0; k < shards_; ++k) {
        std::string payload = "fleet-shard v1\nshard " + std::to_string(k) +
                              "\nround " + std::to_string(r) +
                              "\nsessions 0\n";
        const std::string framed =
            runtime::CheckpointStore::frame(std::move(payload));
        oracles_[k].beginSave(framed);
        try {
          write_(env, fleetPath(k), framed);
        } catch (const std::exception&) {
          continue;
        }
        oracles_[k].ackSave(framed);
      }
    }
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    for (size_t k = 0; k < shards_; ++k) {
      const std::string path = fleetPath(k);
      if (auto bad = oracles_[k].checkBytes(image, path)) return bad;
      const auto it = image.find(path);
      if (it != image.end() &&
          !runtime::CheckpointStore::unframe(it->second).hasValue()) {
        return path + ": recovery unframe failed on an old-or-new image";
      }
    }
    return std::nullopt;
  }

  std::optional<std::string> checkLive(
      const sim::DiskImage& image) const override {
    if (auto bad = check(image)) return bad;
    for (size_t k = 0; k < shards_; ++k) {
      if (auto bad = oracles_[k].checkNoTmpLitter(image, fleetPath(k))) {
        return bad;
      }
    }
    return std::nullopt;
  }

 private:
  size_t shards_;
  size_t rounds_;
  DurableWriteFn write_;
  std::vector<DurableFileOracle> oracles_;
};

// ---------------------------------------------------------------------------
// The run path

/// A workload and the disk it starts from.
struct Workload {
  const char* name;
  WorkloadFactory factory;
  sim::DiskImage initial;
};

std::vector<sim::CrashPersist> persistVariants(uint64_t seed) {
  using M = sim::CrashPersist::Mode;
  std::vector<sim::CrashPersist> v = {
      {M::kNone, 0}, {M::kAll, 0}, {M::kMetaOnly, 0}};
  for (size_t i = 0; i < kPersistSeeds; ++i) {
    v.push_back({M::kPrefix, sim::deriveSeed(seed, 0x700 + i)});
    v.push_back({M::kSubset, sim::deriveSeed(seed, 0x800 + i)});
  }
  return v;
}

/// One explored run: a fresh SimIoEnv on the workload's starting image,
/// armed with `schedule`, then the workload, then recovery checked under
/// every persistence variant when a power cut fired, or the live state
/// when none did.  `faultSeed` feeds only kFsyncFailPartial.
RunOutcome<sim::Fault> runSchedule(
    const Workload& w, const sim::FaultSchedule& schedule,
    const std::vector<sim::CrashPersist>& variants, uint64_t faultSeed) {
  RunOutcome<sim::Fault> out;
  auto inst = w.factory();
  sim::SimIoEnv env(w.initial);
  env.setFaultSeed(faultSeed);
  env.setFaults(schedule);
  try {
    inst->run(env);
  } catch (const sim::SimCrash&) {
  }
  out.ops = env.opCount();
  const auto record = [&](const char* mode, uint64_t seed,
                          const std::string& detail) {
    ++out.violations;
    if (!out.first) {
      out.first = Violation<sim::Fault>{w.name, -1, schedule, mode, seed,
                                        detail};
    }
  };
  // A destructor may have swallowed the SimCrash (CaptureWriter's dtor
  // catches everything); env.crashed() is the ground truth.
  if (env.crashed()) {
    out.fired = 1;
    for (const sim::CrashPersist& p : variants) {
      ++out.checks;
      if (auto bad = inst->check(env.crashImage(p))) {
        record(sim::persistModeName(p.mode), p.seed, *bad);
      }
    }
  } else {
    ++out.checks;
    if (auto bad = inst->checkLive(env.liveImage())) record("live", 0, *bad);
  }
  return out;
}

/// The crash-point sweep: a power cut at every syscall boundary in turn.
sim::FaultSchedule powerCuts(uint64_t boundaries) {
  sim::FaultSchedule cuts;
  for (uint64_t k = 0; k < boundaries; ++k) {
    cuts.push_back({k, sim::FaultKind::kCrash});
  }
  return cuts;
}

sim::Fault drawIoFault(std::mt19937_64& rng, uint64_t op) {
  static constexpr sim::FaultKind kKinds[] = {
      sim::FaultKind::kEio,        sim::FaultKind::kEnospc,
      sim::FaultKind::kEintr,      sim::FaultKind::kShortWrite,
      sim::FaultKind::kFsyncFailPartial, sim::FaultKind::kCrash};
  return {op, kKinds[rng() % std::size(kKinds)]};
}

// ---------------------------------------------------------------------------
// JSON

std::string scheduleJson(const sim::FaultSchedule& schedule) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < schedule.size(); ++i) {
    out << (i ? ", " : "") << "{\"op\": " << schedule[i].opIndex
        << ", \"kind\": \"" << sim::faultKindName(schedule[i].kind) << "\"}";
  }
  out << ']';
  return out.str();
}

std::string artifactJson(
    uint64_t faultSeed, const sim::FaultSchedule& shrunk,
    const std::optional<Violation<sim::Fault>>& violation) {
  std::ostringstream out;
  out << "{\"workload\": \"broken_writer\", \"fault_seed\": " << faultSeed
      << ", \"schedule\": " << scheduleJson(shrunk);
  if (violation) {
    out << ", \"persist\": {\"mode\": \"" << violation->persistMode
        << "\", \"seed\": " << violation->persistSeed << "}"
        << ", \"detail\": \"" << obs::jsonEscape(violation->detail) << "\"";
  }
  out << "}";
  return out.str();
}

}  // namespace

CrashEvalResult runCrashEval(const CrashExploreConfig& config) {
  CrashEvalResult result;
  const std::vector<sim::CrashPersist> variants = persistVariants(config.seed);

  const capture::TimedStream mainStream =
      quantizedStream(config.captureReports, 1'000'000);
  const capture::TimedStream reopenStream =
      quantizedStream(std::max<size_t>(config.captureReports / 2, 1),
                      400'000'000);

  const WorkloadFactory captureFreshF = [&mainStream] {
    return std::make_unique<CaptureWorkload>(mainStream,
                                             capture::TimedStream{}, false);
  };

  // Starting images for the reopen workloads: a clean capture, and the same
  // capture with a deterministic torn tail (a cut inside the last chunk --
  // what a mid-write power cut leaves).
  sim::DiskImage cleanImage;
  {
    auto inst = captureFreshF();
    sim::SimIoEnv env;
    inst->run(env);
    cleanImage = env.liveImage();
  }
  sim::DiskImage tornImage = cleanImage;
  {
    std::string& bytes = tornImage[kCapturePath];
    bytes.resize(bytes.size() - std::min<size_t>(bytes.size() / 2, 10));
  }
  const capture::TimedStream cleanBase =
      decodeStrictPrefix(cleanImage.at(kCapturePath));
  const capture::TimedStream tornBase =
      decodeStrictPrefix(tornImage.at(kCapturePath));

  const Workload fleet{"fleet_fanout",
                       [] {
                         return std::make_unique<FleetFanoutWorkload>(
                             kFleetShards, kFleetRounds, &correctDurableWrite);
                       },
                       {}};
  const Workload workloads[] = {
      {"checkpoint",
       [] { return std::make_unique<CheckpointWorkload>(kCheckpointSaves); },
       {}},
      {"capture_append", captureFreshF, {}},
      {"capture_reopen_clean",
       [&reopenStream, &cleanBase] {
         return std::make_unique<CaptureWorkload>(reopenStream, cleanBase,
                                                  true);
       },
       cleanImage},
      {"capture_reopen_torn",
       [&reopenStream, &tornBase] {
         return std::make_unique<CaptureWorkload>(reopenStream, tornBase,
                                                  true);
       },
       tornImage},
      fleet,
  };
  uint64_t fleetOps = 0;
  for (const Workload& w : workloads) {
    const ExploreStats stats = exploreWorkload(
        w.name,
        [&](const sim::FaultSchedule& schedule) {
          return runSchedule(w, schedule, variants, config.seed);
        },
        powerCuts, result.violations);
    result.totalBoundaries += stats.boundaries;
    result.totalCrashPoints += stats.points;
    result.totalViolations += stats.violations;
    if (stats.name == fleet.name) fleetOps = stats.boundaries;
    result.workloads.push_back(stats);
  }

  // Seeded fault-schedule search over the fleet fan-out path.
  std::mt19937_64 rng = sim::makeRng(sim::deriveSeed(config.seed, 0x5C4ED));
  for (size_t r = 0; r < config.scheduleRounds && fleetOps > 0; ++r) {
    const sim::FaultSchedule schedule =
        randomSchedule<sim::Fault>(rng, fleetOps, drawIoFault);
    const RunOutcome<sim::Fault> out =
        runSchedule(fleet, schedule, variants,
                    sim::deriveSeed(config.seed, 0x900 + r));
    ++result.scheduleRuns;
    result.scheduleCrashes += out.fired;
    result.scheduleChecks += out.checks;
    result.scheduleViolations += out.violations;
    result.totalViolations += out.violations;
    if (out.first) keepViolation(result.violations, *out.first);
  }

  // Falsification arm: the harness must catch the planted ordering bug and
  // shrink a failing schedule to a minimal replayable artifact.
  const Workload broken{"broken_writer",
                        [] {
                          return std::make_unique<FleetFanoutWorkload>(
                              1, 2, &brokenDurableWrite);
                        },
                        {}};
  const uint64_t brokenFaultSeed = sim::deriveSeed(config.seed, 0xFA11);
  const auto runBroken = [&](const sim::FaultSchedule& schedule) {
    return runSchedule(broken, schedule, variants, brokenFaultSeed);
  };
  const uint64_t brokenOps = runBroken({}).ops;
  result.brokenWriter = falsify(
      powerCuts(brokenOps), sim::makeRng(sim::deriveSeed(config.seed, 0xB40C)),
      std::max<uint64_t>(brokenOps, 1), drawIoFault,
      [&](const sim::FaultSchedule& schedule) {
        return !schedule.empty() && runBroken(schedule).violations > 0;
      },
      [&](const sim::FaultSchedule& shrunk) {
        return artifactJson(brokenFaultSeed, shrunk, runBroken(shrunk).first);
      });

  result.pass = result.totalViolations == 0 && result.brokenWriter.ok();
  return result;
}

std::string crashJson(const CrashEvalResult& result) {
  std::ostringstream out;
  out << "{\n  \"workloads\": [\n";
  for (size_t i = 0; i < result.workloads.size(); ++i) {
    const ExploreStats& w = result.workloads[i];
    out << "    {\"name\": \"" << obs::jsonEscape(w.name)
        << "\", \"boundaries\": " << w.boundaries
        << ", \"crash_points\": " << w.points
        << ", \"violations\": " << w.violations << '}'
        << (i + 1 < result.workloads.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"total_boundaries\": " << result.totalBoundaries << ",\n";
  out << "  \"total_crash_points\": " << result.totalCrashPoints << ",\n";
  out << "  \"total_violations\": " << result.totalViolations << ",\n";
  out << "  \"schedule_search\": {\"runs\": " << result.scheduleRuns
      << ", \"crashes\": " << result.scheduleCrashes
      << ", \"checks\": " << result.scheduleChecks
      << ", \"violations\": " << result.scheduleViolations << "},\n";
  out << "  \"broken_writer\": " << result.brokenWriter.json() << ",\n";
  out << "  \"violations\": [\n";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    const Violation<sim::Fault>& v = result.violations[i];
    out << "    {\"workload\": \"" << obs::jsonEscape(v.workload)
        << "\", \"crash_at_op\": " << v.atOp << ", \"persist\": \""
        << obs::jsonEscape(v.persistMode) << "\", \"persist_seed\": "
        << v.persistSeed << ", \"schedule\": " << scheduleJson(v.schedule)
        << ", \"detail\": \"" << obs::jsonEscape(v.detail) << "\"}"
        << (i + 1 < result.violations.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"pass\": " << (result.pass ? "true" : "false") << "\n}\n";
  return out.str();
}

}  // namespace tagspin::eval
