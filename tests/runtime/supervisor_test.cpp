#include "runtime/supervisor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <vector>

#include "../core/synthetic.hpp"
#include "eval/runner.hpp"
#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "rf/constants.hpp"
#include "rfid/llrp.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

namespace tagspin::runtime {
namespace {

const rfid::Epc kTag0 = rfid::Epc::forSimulatedTag(0);
const rfid::Epc kTag1 = rfid::Epc::forSimulatedTag(1);
const rfid::Epc kUnknown = rfid::Epc::forSimulatedTag(42);

core::DeploymentFile twoRigDeployment() {
  core::DeploymentFile d;
  core::RigSpec rig;
  rig.center = {-0.2, 0.0, 0.0};
  rig.kinematics = {0.10, 0.5, 0.0, geom::kPi / 2.0};
  d.rigs[kTag0] = rig;
  rig.center = {0.2, 0.0, 0.0};
  d.rigs[kTag1] = rig;
  return d;
}

rfid::TagReport report(const rfid::Epc& epc, double t, double phase,
                       double rssi = -60.0) {
  rfid::TagReport r;
  r.epc = epc;
  r.timestampS = t;
  r.phaseRad = phase;
  r.rssiDbm = rssi;
  r.channelIndex = 3;
  r.frequencyHz = 920e6;
  r.antennaPort = 0;
  return r;
}

// Scripted transport shared with session_test in spirit: chunks are
// delivered one per poll; close() can permanently kill the endpoint.
struct ScriptedTransport final : Transport {
  std::deque<std::vector<uint8_t>> chunks;
  bool connected = false;
  bool peerClosed = false;
  bool dieOnClose = false;  // after close(), connect() fails forever
  bool dead = false;

  bool connect(double) override {
    if (dead) return false;
    connected = true;
    return true;
  }
  TransportRead poll(double) override {
    if (peerClosed) {
      peerClosed = false;
      connected = false;
      return {TransportStatus::kClosed, {}};
    }
    if (!connected) return {TransportStatus::kClosed, {}};
    if (chunks.empty()) return {TransportStatus::kIdle, {}};
    TransportRead r;
    r.status = TransportStatus::kOk;
    r.bytes = std::move(chunks.front());
    chunks.pop_front();
    return r;
  }
  void close() override {
    connected = false;
    if (dieOnClose) dead = true;
  }
};

SupervisorConfig testConfig() {
  SupervisorConfig c;
  c.checkpointIntervalS = 0.0;  // explicit saves only (via shutdown)
  c.session.noReportTimeoutS = 1e9;  // quiet transports are fine in tests
  return c;
}

std::string tempCkpt(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Supervisor, IngestsKnownTagsDropsUnknownWeakAndDuplicate) {
  Supervisor sup(testConfig(), twoRigDeployment());
  auto transport = std::make_unique<ScriptedTransport>();
  ScriptedTransport* tp = transport.get();
  // Factory is unused until a session fails; hand the premade one over.
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  sup.addSession("r0", [&owned] { return std::move(owned); });

  rfid::ReportStream batch;
  batch.push_back(report(kTag0, 0.10, 0.5));
  batch.push_back(report(kTag0, 0.10, 0.5));       // exact duplicate
  batch.push_back(report(kTag1, 0.20, 1.5));
  batch.push_back(report(kUnknown, 0.30, 1.0));    // not in the deployment
  batch.push_back(report(kTag0, 0.40, 2.0, -99.0));  // below the RSSI floor
  tp->chunks.push_back(rfid::llrp::encodeStream(batch));

  sup.tick(0.0);
  sup.tick(0.1);

  EXPECT_EQ(sup.stats().reportsSeen, 5u);
  EXPECT_EQ(sup.stats().reportsIngested, 2u);
  EXPECT_EQ(sup.stats().duplicatesSuppressed, 1u);
  EXPECT_EQ(sup.stats().unknownEpcDropped, 1u);
  EXPECT_EQ(sup.stats().weakRssiDropped, 1u);
  EXPECT_EQ(sup.tagSnapshotCount(kTag0), 1u);
  EXPECT_EQ(sup.tagSnapshotCount(kTag1), 1u);
  EXPECT_NEAR(sup.lastReportTimestampS(), 0.20, 1e-5);
}

TEST(Supervisor, InvalidReportGivesTheErasedStreamsFix) {
  // One revolution of a 3-rig row.  A report with a non-finite time, phase
  // or frequency, or a frequency <= 0 (an infinite wavelength), is dropped
  // at ingest, so the fix equals the one without that report.
  sim::ScenarioConfig sc;
  sc.seed = 11;
  sim::World world = sim::makeRigRowWorld(sc, 3);
  sim::placeReaderAntenna(world, 0, {0.5, 1.9, 0.0});
  sim::InterrogateConfig ic;
  ic.durationS = 4.0 * geom::kPi;
  const rfid::ReportStream reports = sim::interrogate(world, ic);
  const core::DeploymentFile deployment = eval::deploymentOf(world);
  const size_t victim = reports.size() / 2;

  Supervisor reference(testConfig(), deployment);
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i != victim) reference.ingest(reports[i]);
  }
  const auto want = reference.tryLocate2D();
  ASSERT_TRUE(want) << want.error().message;
  EXPECT_EQ(want->report.grade, core::FixGrade::kFull);

  const std::pair<const char*, void (*)(rfid::TagReport&)> breaks[] = {
      {"NaN phase", [](rfid::TagReport& r) { r.phaseRad = std::nan(""); }},
      {"NaN time", [](rfid::TagReport& r) { r.timestampS = std::nan(""); }},
      {"infinite time", [](rfid::TagReport& r) { r.timestampS = HUGE_VAL; }},
      {"NaN frequency",
       [](rfid::TagReport& r) { r.frequencyHz = std::nan(""); }},
      {"zero frequency", [](rfid::TagReport& r) { r.frequencyHz = 0.0; }},
  };
  for (const auto& [name, breakIt] : breaks) {
    SCOPED_TRACE(name);
    obs::MetricsRegistry registry;
    SupervisorConfig config = testConfig();
    config.metrics = &registry;
    Supervisor sup(config, deployment);
    for (size_t i = 0; i < reports.size(); ++i) {
      rfid::TagReport r = reports[i];
      if (i == victim) breakIt(r);
      sup.ingest(r);
    }
    const auto got = sup.tryLocate2D();
    ASSERT_TRUE(got) << got.error().message;
    EXPECT_EQ(got->fix.position.x, want->fix.position.x);
    EXPECT_EQ(got->fix.position.y, want->fix.position.y);
    EXPECT_EQ(got->report.grade, want->report.grade);
    EXPECT_EQ(got->report.usedRigs, want->report.usedRigs);
    EXPECT_EQ(got->report.confidence, want->report.confidence);
    EXPECT_EQ(sup.stats().reportsSeen, reports.size());
    EXPECT_EQ(sup.stats().invalidDropped, 1u);
    EXPECT_EQ(sup.stats().reportsIngested,
              reference.stats().reportsIngested);
    EXPECT_EQ(registry.snapshot().counterValue("supervisor.invalid_dropped"),
              1u);
  }
}

TEST(Supervisor, ReplacesTrippedSessionWithoutLosingProgress) {
  SupervisorConfig config = testConfig();
  config.session.connectTimeoutS = 0.4;
  config.session.backoff.baseDelayS = 0.2;
  config.session.backoff.maxDelayS = 0.5;
  config.session.breaker.failuresToOpen = 1;
  config.session.breaker.openCooldownS = 0.3;
  config.session.breaker.halfOpenFailuresToTrip = 1;

  int built = 0;
  ScriptedTransport* current = nullptr;
  const TransportFactory factory = [&built, &current] {
    auto t = std::make_unique<ScriptedTransport>();
    current = t.get();
    ++built;
    return t;
  };

  Supervisor sup(config, twoRigDeployment());
  sup.addSession("r0", factory);
  ASSERT_EQ(built, 1);

  // First transport streams a little, then the peer drops it and the
  // endpoint dies, so every reconnect fails until the breaker trips.
  rfid::ReportStream batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(report(kTag0, 0.01 * i, 0.1 * i));
  }
  current->chunks.push_back(rfid::llrp::encodeStream(batch));
  current->dieOnClose = true;

  sup.tick(0.0);
  sup.tick(0.1);
  ASSERT_EQ(sup.tagSnapshotCount(kTag0), 10u);
  current->peerClosed = true;

  double t = 0.1;
  while (sup.stats().sessionsRestarted == 0 && t < 60.0) {
    t += 0.1;
    sup.tick(t);
  }
  EXPECT_EQ(sup.stats().sessionsRestarted, 1u);
  EXPECT_EQ(built, 2);

  // Replacement session streams fresh data; earlier progress survived.
  rfid::ReportStream more;
  for (int i = 0; i < 5; ++i) {
    more.push_back(report(kTag0, 1.0 + 0.01 * i, 0.05 + 0.1 * i));
  }
  current->chunks.push_back(rfid::llrp::encodeStream(more));
  sup.tick(t + 0.1);
  sup.tick(t + 0.2);
  EXPECT_EQ(sup.tagSnapshotCount(kTag0), 15u);
}

TEST(Supervisor, CheckpointRestoreResumesWithoutReacquisition) {
  const std::string path = tempCkpt("tagspin_supervisor_test.ckpt");
  std::remove(path.c_str());
  CheckpointStore store(path);

  rfid::ReportStream batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(report(kTag0, 0.05 * i, geom::wrapTwoPi(0.3 * i)));
  }

  {
    Supervisor sup(testConfig(), twoRigDeployment(), &store);
    auto transport = std::make_unique<ScriptedTransport>();
    transport->chunks.push_back(rfid::llrp::encodeStream(batch));
    std::unique_ptr<ScriptedTransport> owned = std::move(transport);
    sup.addSession("r0", [&owned] { return std::move(owned); });
    sup.tick(0.0);
    sup.tick(0.1);
    ASSERT_EQ(sup.tagSnapshotCount(kTag0), 20u);
    sup.shutdown(0.2);  // saves the final checkpoint
  }  // "kill": the supervisor object is gone

  Supervisor resumed(testConfig(), twoRigDeployment(), &store);
  const auto restored = resumed.restore();
  ASSERT_TRUE(restored.hasValue());
  EXPECT_EQ(resumed.tagSnapshotCount(kTag0), 20u);
  EXPECT_NEAR(resumed.lastReportTimestampS(), 0.05 * 19, 1e-5);

  // The reader replays the very same reports (the revolution in flight):
  // every one must dedup against the restored state, none re-ingested.
  auto transport = std::make_unique<ScriptedTransport>();
  transport->chunks.push_back(rfid::llrp::encodeStream(batch));
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  resumed.addSession("r0", [&owned] { return std::move(owned); });
  resumed.tick(1.0);
  resumed.tick(1.1);
  EXPECT_EQ(resumed.stats().duplicatesSuppressed, 20u);
  EXPECT_EQ(resumed.stats().reportsIngested, 0u);
  EXPECT_EQ(resumed.tagSnapshotCount(kTag0), 20u);

  std::remove(path.c_str());
}

TEST(Supervisor, RestoreWithoutFileIsAFreshStart) {
  const std::string path = tempCkpt("tagspin_supervisor_missing.ckpt");
  std::remove(path.c_str());
  CheckpointStore store(path);
  Supervisor sup(testConfig(), twoRigDeployment(), &store);
  const auto restored = sup.restore();
  ASSERT_FALSE(restored.hasValue());
  EXPECT_EQ(restored.code(), core::ErrorCode::kCheckpointMissing);
}

TEST(Supervisor, DecimationBoundsPerTagMemory) {
  SupervisorConfig config = testConfig();
  config.maxSnapshotsPerTag = 64;
  Supervisor sup(config, twoRigDeployment());
  auto transport = std::make_unique<ScriptedTransport>();
  ScriptedTransport* tp = transport.get();
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  sup.addSession("r0", [&owned] { return std::move(owned); });

  rfid::ReportStream batch;
  for (int i = 0; i < 300; ++i) {
    batch.push_back(report(kTag0, 0.01 * i, geom::wrapTwoPi(0.05 * i)));
  }
  tp->chunks.push_back(rfid::llrp::encodeStream(batch));
  sup.tick(0.0);
  sup.tick(0.1);

  EXPECT_LT(sup.tagSnapshotCount(kTag0), 64u);
  EXPECT_GE(sup.stats().decimationsApplied, 1u);
  // Earliest and latest samples both survive thinning (arc coverage).
  EXPECT_GT(sup.tagSnapshotCount(kTag0), 10u);
}

/// Reports whose phases follow the paper's signal model for a rig at
/// `rig.center` watching `reader` -- what a real spin streams over LLRP.
rfid::ReportStream spinReports(const rfid::Epc& epc, const core::RigSpec& rig,
                               const geom::Vec3& reader, uint64_t seed) {
  core::testing::SyntheticConfig sc;
  sc.distanceM = (reader.xy() - rig.center.xy()).norm();
  sc.readerAzimuth = geom::azimuthOf(rig.center, reader);
  sc.noiseStd = 0.05;
  sc.count = 400;
  sc.seed = seed;
  sc.thetaDiv = 0.4 + 0.9 * static_cast<double>(seed);
  rfid::ReportStream out;
  for (const core::Snapshot& s :
       core::testing::makeSnapshots(sc, rig.kinematics)) {
    // Frequency chosen so the ingest-side wavelength matches the model's.
    out.push_back(
        report(epc, s.timeS, s.phaseRad, -60.0));
    out.back().frequencyHz = rf::kSpeedOfLight / sc.lambdaM;
  }
  return out;
}

TEST(Supervisor, QuarantineTriggersRespinAndCachesLastFix) {
  // Three rigs; tag 2's stream is a 50/50 interleave of the true reader
  // and a ghost -- two near-equal spectrum lobes the self-diagnosis must
  // quarantine.  locateAndRecover2D should still fix from the healthy
  // pair, discard the haunted tag's snapshots for a fresh spin, and cache
  // the fix for the next checkpoint.
  const rfid::Epc kTag2 = rfid::Epc::forSimulatedTag(2);
  core::DeploymentFile deployment = twoRigDeployment();
  deployment.rigs[kTag0].center = {-0.4, 0.0, 0.0};
  deployment.rigs[kTag1].center = {0.0, 0.0, 0.0};
  core::RigSpec rig2;
  rig2.center = {0.4, 0.0, 0.0};
  rig2.kinematics = {0.10, 0.5, 0.0, geom::kPi / 2.0};
  deployment.rigs[kTag2] = rig2;

  const geom::Vec3 reader{0.8, 2.0, 0.0};
  const geom::Vec3 ghost{-1.4, 1.0, 0.0};

  rfid::ReportStream batch = spinReports(kTag0, deployment.rigs[kTag0],
                                         reader, 1);
  {
    const rfid::ReportStream clean =
        spinReports(kTag1, deployment.rigs[kTag1], reader, 2);
    batch.insert(batch.end(), clean.begin(), clean.end());
    const rfid::ReportStream truth = spinReports(kTag2, rig2, reader, 3);
    const rfid::ReportStream haunted = spinReports(kTag2, rig2, ghost, 4);
    for (size_t i = 0; i < truth.size(); ++i) {
      batch.push_back((i % 2 == 0) ? truth[i] : haunted[i]);
    }
  }

  Supervisor sup(testConfig(), deployment);
  auto transport = std::make_unique<ScriptedTransport>();
  ScriptedTransport* tp = transport.get();
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  sup.addSession("r0", [&owned] { return std::move(owned); });
  tp->chunks.push_back(rfid::llrp::encodeStream(batch));
  sup.tick(0.0);
  sup.tick(0.1);
  ASSERT_EQ(sup.tagSnapshotCount(kTag2), 400u);
  const size_t tag0Count = sup.tagSnapshotCount(kTag0);
  ASSERT_GE(tag0Count, 16u);

  const auto fix = sup.locateAndRecover2D(1.0);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_EQ(fix->report.grade, core::FixGrade::kDegraded);
  EXPECT_LT(geom::distance(fix->fix.position, reader.xy()), 0.12);
  EXPECT_EQ(sup.stats().quarantinedSpins, 1u);
  EXPECT_EQ(sup.stats().respinsRequested, 1u);

  // The haunted tag starts over; the healthy tags keep their spins.
  EXPECT_EQ(sup.tagSnapshotCount(kTag2), 0u);
  EXPECT_EQ(sup.tagSnapshotCount(kTag0), tag0Count);

  // The fix is cached for the next checkpoint's [last_fix] section.
  const core::CalibrationCheckpoint ckpt = sup.makeCheckpoint(2.0);
  ASSERT_TRUE(ckpt.lastFix.valid);
  EXPECT_NEAR(ckpt.lastFix.x, fix->fix.position.x, 1e-12);
  EXPECT_NEAR(ckpt.lastFix.y, fix->fix.position.y, 1e-12);
  EXPECT_EQ(ckpt.lastFix.quarantinedSpins, 1u);
  EXPECT_DOUBLE_EQ(ckpt.lastFix.confidence, fix->report.confidence);

  // The re-spin arrives clean: the next recovery pass upgrades to a full-
  // grade three-rig fix and requests nothing further.
  auto transport2 = std::make_unique<ScriptedTransport>();
  ScriptedTransport* tp2 = transport2.get();
  std::unique_ptr<ScriptedTransport> owned2 = std::move(transport2);
  sup.addSession("r1", [&owned2] { return std::move(owned2); });
  // The fresh spin reuses the reader's clock grid; requestRespin cleared
  // the dedup keys, so the re-acquisition ingests cleanly.
  const rfid::ReportStream respun = spinReports(kTag2, rig2, reader, 5);
  tp2->chunks.push_back(rfid::llrp::encodeStream(respun));
  sup.tick(3.0);
  sup.tick(3.1);
  ASSERT_EQ(sup.tagSnapshotCount(kTag2), 400u);

  const auto healed = sup.locateAndRecover2D(4.0);
  ASSERT_TRUE(healed.hasValue()) << healed.error().message;
  EXPECT_EQ(healed->report.grade, core::FixGrade::kFull);
  EXPECT_LT(geom::distance(healed->fix.position, reader.xy()), 0.12);
  EXPECT_EQ(sup.stats().respinsRequested, 1u);
  EXPECT_GT(healed->report.confidence, fix->report.confidence);
}

TEST(Supervisor, ZeroRadiusRigIsDroppedNotThrown) {
  // A deployment built in code can carry a rig no profile can be built for
  // (readDeployment rejects it at parse time).  The fleet's fix path must
  // drop that rig with the reason and fix from the others, not throw.
  const rfid::Epc kTag2 = rfid::Epc::forSimulatedTag(2);
  core::DeploymentFile deployment = twoRigDeployment();
  deployment.rigs[kTag0].center = {-0.4, 0.0, 0.0};
  deployment.rigs[kTag1].center = {0.0, 0.0, 0.0};
  core::RigSpec rig2;
  rig2.center = {0.4, 0.0, 0.0};
  rig2.kinematics = {0.10, 0.5, 0.0, geom::kPi / 2.0};
  deployment.rigs[kTag2] = rig2;
  const geom::Vec3 reader{0.8, 2.0, 0.0};
  rfid::ReportStream batch;
  uint64_t seed = 1;
  for (const auto& [epc, rig] : deployment.rigs) {
    const rfid::ReportStream spin = spinReports(epc, rig, reader, seed++);
    batch.insert(batch.end(), spin.begin(), spin.end());
  }
  deployment.rigs[kTag1].kinematics.radiusM = 0.0;

  Supervisor sup(testConfig(), deployment);
  auto transport = std::make_unique<ScriptedTransport>();
  transport->chunks.push_back(rfid::llrp::encodeStream(batch));
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  sup.addSession("r0", [&owned] { return std::move(owned); });
  sup.tick(0.0);
  sup.tick(0.1);
  ASSERT_EQ(sup.tagSnapshotCount(kTag1), 400u);

  // An exception escaping locateAndRecover2D fails the test.
  const auto fix = sup.locateAndRecover2D(1.0);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  EXPECT_EQ(fix->report.grade, core::FixGrade::kDegraded);
  ASSERT_EQ(fix->report.droppedReasons.size(), 1u);
  EXPECT_NE(fix->report.droppedReasons[0].find("radius"), std::string::npos)
      << fix->report.droppedReasons[0];
  EXPECT_LT(geom::distance(fix->fix.position, reader.xy()), 0.12);
}

TEST(Supervisor, CheckpointFailureDoesNotStopIngestion) {
  SupervisorConfig config = testConfig();
  config.checkpointIntervalS = 0.01;
  CheckpointStore store("/nonexistent_dir_tagspin/ckpt");
  Supervisor sup(config, twoRigDeployment(), &store);
  auto transport = std::make_unique<ScriptedTransport>();
  ScriptedTransport* tp = transport.get();
  std::unique_ptr<ScriptedTransport> owned = std::move(transport);
  sup.addSession("r0", [&owned] { return std::move(owned); });

  rfid::ReportStream batch;
  batch.push_back(report(kTag0, 0.1, 0.5));
  tp->chunks.push_back(rfid::llrp::encodeStream(batch));
  sup.tick(0.0);
  sup.tick(0.1);

  EXPECT_GE(sup.stats().checkpointFailures, 1u);
  EXPECT_EQ(sup.stats().checkpointsSaved, 0u);
  EXPECT_EQ(sup.tagSnapshotCount(kTag0), 1u);
}

}  // namespace
}  // namespace tagspin::runtime
