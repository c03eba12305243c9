// FleetManager containment tests: retry-budget pacing, quarantine
// eject/readmit, admission control, the work-axis shed ladder, and
// multi-shard kill -9 + restore.
// The worker-pool parity test runs the same fleet with 0 and 2 worker
// threads and demands identical results -- under `ctest -L tsan` that is
// also the ThreadSanitizer's view of the shard/pool handoff.
#include "runtime/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "core/serialization.hpp"
#include "eval/runner.hpp"
#include "runtime/checkpoint.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

namespace tagspin::runtime {
namespace {

const rfid::Epc kTag0 = rfid::Epc::forSimulatedTag(0);
const rfid::Epc kTag1 = rfid::Epc::forSimulatedTag(1);

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

rfid::TagReport report(const rfid::Epc& epc, double t, double phase) {
  rfid::TagReport r;
  r.epc = epc;
  r.timestampS = t;
  r.phaseRad = phase;
  r.rssiDbm = -60.0;
  r.channelIndex = 3;
  r.frequencyHz = 920e6;
  r.antennaPort = 0;
  return r;
}

std::vector<uint8_t> frameWith(int reports, double baseT) {
  rfid::ReportStream batch;
  for (int i = 0; i < reports; ++i) {
    batch.push_back(report(kTag0, baseT + 0.01 * i,
                           geom::wrapTwoPi(0.1 * i)));
  }
  return rfid::llrp::encodeStream(batch);
}

/// Connects instantly, then closes the connection on every poll until
/// healAtS; after healing, delivers `frame` once per (re)connect and idles.
struct FlapTransport final : Transport {
  double healAtS = 1e18;
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    delivered = false;
    return true;
  }
  TransportRead poll(double nowS) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (nowS < healAtS) {
      connected = false;
      return {TransportStatus::kClosed, {}};
    }
    if (!delivered && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

/// Every connect attempt fails (a reader that is simply gone).
struct DeadTransport final : Transport {
  bool connect(double) override { return false; }
  TransportRead poll(double) override {
    return {TransportStatus::kClosed, {}};
  }
  void close() override {}
};

/// Delivers one prebuilt frame after a healthy connect, then idles.
struct OneShotTransport final : Transport {
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    return true;
  }
  TransportRead poll(double) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (!delivered && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

FleetConfig testFleetConfig() {
  FleetConfig c;
  c.shards = 2;
  c.supervisor.checkpointIntervalS = 0.0;
  c.supervisor.session.noReportTimeoutS = 1e9;  // idle transports are fine
  c.fixIntervalS = 1e9;  // these tests exercise containment, not fixes
  c.checkpointIntervalS = 0.0;
  return c;
}

std::string tempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(TokenBucket, BurstThenRefillRatePacesAcquisition) {
  TokenBucket bucket(2.0, 4.0);
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    if (bucket.tryAcquire(0.0)) ++granted;
  }
  EXPECT_EQ(granted, 4);  // the burst, nothing more at t=0

  // Over the next 3 seconds the refill rate is the only supply.
  granted = 0;
  for (double t = 0.1; t <= 3.0 + 1e-9; t += 0.1) {
    if (bucket.tryAcquire(t)) ++granted;
  }
  EXPECT_GE(granted, 5);  // ~2/s * 3s
  EXPECT_LE(granted, 7);
}

TEST(Fleet, AdmissionControlCapsFleetAndRejectsDuplicates) {
  FleetConfig config = testFleetConfig();
  config.maxSessions = 4;  // 2 shards -> 2 sessions per shard
  FleetManager fleet(config, twoRigDeployment());

  const auto factory = [] { return std::make_unique<OneShotTransport>(); };
  EXPECT_TRUE(fleet.registerSession("a", factory));
  EXPECT_TRUE(fleet.registerSession("b", factory));
  EXPECT_FALSE(fleet.registerSession("a", factory));  // duplicate name
  EXPECT_TRUE(fleet.registerSession("c", factory));
  EXPECT_TRUE(fleet.registerSession("d", factory));
  EXPECT_FALSE(fleet.registerSession("e", factory));  // fleet full

  EXPECT_EQ(fleet.sessionCount(), 4u);
  EXPECT_EQ(fleet.stats().admitted, 4u);
  EXPECT_EQ(fleet.stats().admissionRejected, 2u);

  // Placement is least-loaded: both shards got two sessions.
  const auto views = fleet.sessions();
  size_t shard0 = 0;
  for (const auto& v : views) {
    if (v.shard == 0) ++shard0;
  }
  EXPECT_EQ(shard0, 2u);
}

TEST(Fleet, RetryBudgetPacesConnectStormAcrossShard) {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 8;
  config.retryBudget.tokensPerSecond = 2.0;
  config.retryBudget.burst = 6.0;
  config.supervisor.session.connectTimeoutS = 0.1;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.2;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  FleetManager fleet(config, twoRigDeployment());
  for (int i = 0; i < 8; ++i) {
    fleet.registerSession("dead" + std::to_string(i),
                          [] { return std::make_unique<DeadTransport>(); });
  }

  const double spanS = 10.0;
  for (double t = 0.0; t <= spanS + 1e-9; t += 0.1) fleet.tick(t);

  uint64_t attempts = 0;
  for (size_t i = 0; i < 8; ++i) {
    const Supervisor* sup =
        fleet.supervisor("dead" + std::to_string(i));
    ASSERT_NE(sup, nullptr);
    attempts += sup->session(0).stats().connectAttempts;
  }
  // Supply over the run is one free first attempt per session plus the
  // bucket's burst and refill; every attempt beyond it must have been
  // denied by the gate, not queued up as connect work.
  const double supply =
      8.0 + config.retryBudget.burst +
      config.retryBudget.tokensPerSecond * spanS;
  EXPECT_GT(attempts, 8u);  // the storm did keep retrying
  EXPECT_LE(static_cast<double>(attempts), supply + 1.0);
  EXPECT_GT(fleet.stats().budgetDenied, 0u);
}

TEST(Fleet, QuarantineEjectsFlapperAndReadmitsAfterProbe) {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 2;
  config.retryBudget.tokensPerSecond = 100.0;  // decouple budget from flaps
  config.retryBudget.burst = 100.0;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.3;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  config.quarantine.probeBaseS = 2.0;
  config.quarantine.probeWindowS = 1.0;
  FleetManager fleet(config, twoRigDeployment());

  FlapTransport* flappy = nullptr;
  fleet.registerSession("flappy", [&flappy] {
    auto t = std::make_unique<FlapTransport>();
    t->healAtS = 8.0;
    t->frame = frameWith(4, 0.0);
    flappy = t.get();
    return t;
  });
  fleet.registerSession("steady", [] {
    auto t = std::make_unique<OneShotTransport>();
    t->frame = frameWith(4, 10.0);
    return t;
  });

  double ejectedAtS = -1.0;
  double readmittedAtS = -1.0;
  for (double t = 0.0; t <= 30.0 + 1e-9; t += 0.1) {
    fleet.tick(t);
    const auto views = fleet.sessions();
    for (const auto& v : views) {
      if (v.name != "flappy") continue;
      if (v.quarantined && ejectedAtS < 0.0) ejectedAtS = t;
      if (!v.quarantined && ejectedAtS >= 0.0 && readmittedAtS < 0.0) {
        readmittedAtS = t;
      }
    }
  }

  EXPECT_GT(fleet.stats().ejections, 0u);
  EXPECT_GT(fleet.stats().readmissions, 0u);
  EXPECT_GT(fleet.stats().probes, 0u);
  ASSERT_GE(ejectedAtS, 0.0);
  ASSERT_GE(readmittedAtS, 0.0);
  EXPECT_LT(ejectedAtS, 8.0);        // ejected while still flapping
  EXPECT_GT(readmittedAtS, 8.0);     // readmitted only after healing
  EXPECT_EQ(fleet.stats().quarantinedNow, 0u);

  // The readmitted session is live again and its frame was ingested.
  const Supervisor* sup = fleet.supervisor("flappy");
  ASSERT_NE(sup, nullptr);
  EXPECT_EQ(sup->session(0).state(), SessionState::kStreaming);
  EXPECT_EQ(sup->tagSnapshotCount(kTag0), 4u);

  // The healthy neighbor never noticed: no flaps, stream intact.
  const Supervisor* steady = fleet.supervisor("steady");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->session(0).stats().disconnects, 0u);
  EXPECT_EQ(steady->tagSnapshotCount(kTag0), 4u);
}

/// Serves a located stream in chunks, one per poll; once they are out,
/// every poll while `flood` is set carries `floodReports` reads of a tag
/// outside the deployment: bytes the session must decode and the
/// supervisor then drops.
struct LoadTransport final : Transport {
  std::deque<std::vector<uint8_t>> chunks;
  bool flood = false;
  size_t floodReports = 0;
  double floodClockS = 1000.0;  // the reader clock keeps advancing
  bool connected = false;

  bool connect(double) override {
    connected = true;
    return true;
  }
  TransportRead poll(double) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (!chunks.empty()) {
      TransportRead r{TransportStatus::kOk, std::move(chunks.front())};
      chunks.pop_front();
      return r;
    }
    if (!flood) return {TransportStatus::kIdle, {}};
    rfid::ReportStream batch;
    for (size_t i = 0; i < floodReports; ++i) {
      batch.push_back(report(rfid::Epc::forSimulatedTag(42), floodClockS,
                             0.0));
      floodClockS += 1e-3;
    }
    return {TransportStatus::kOk, rfid::llrp::encodeStream(batch)};
  }
  void close() override { connected = false; }
};

TEST(Fleet, WorkShedLadderStretchesFixesAndRecoversBelowItsHysteresis) {
  // One revolution of a two-rig row, which the fleet's session can fix.
  sim::ScenarioConfig sc;
  sc.seed = 5;
  sim::World world = sim::makeRigRowWorld(sc, 2);
  sim::placeReaderAntenna(world, 0, {0.3, 1.6, 0.0});
  sim::InterrogateConfig ic;
  ic.durationS = 4.0 * geom::kPi;
  const rfid::ReportStream reports = sim::interrogate(world, ic);
  const core::DeploymentFile deployment = eval::deploymentOf(world);

  // One shard of one session: a budget of 3 * 1 + 8 = 11 work units a
  // tick, against 1 unit per session tick, 1 per decoded KiB and 24 per
  // fix.
  obs::MetricsRegistry registry;
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.fixIntervalS = 20.0;
  config.metrics = &registry;
  config.supervisor.locator.robust.diagnostics = false;  // no re-spins
  struct Fix {
    double dueS;
    bool ok;
    ShedLevel level;  // the level the fix was scheduled under
  };
  std::vector<Fix> fixes;
  const FleetManager* fleetPtr = nullptr;
  config.onFix = [&](const FleetFixEvent& ev) {
    fixes.push_back({ev.dueS, ev.ok, fleetPtr->shedLevel()});
  };
  FleetManager fleet(config, deployment);
  fleetPtr = &fleet;
  LoadTransport* load = nullptr;
  fleet.registerSession("spinner", [&] {
    auto t = std::make_unique<LoadTransport>();
    // Every 8th read, in 8 chunks of ~2.4 KiB: the stream is in before
    // the first fix is due, at 0.25 * 20 s, and never loads the shard.
    rfid::ReportStream sparse;
    for (size_t i = 0; i < reports.size(); i += 8) sparse.push_back(reports[i]);
    const size_t chunk = (sparse.size() + 7) / 8;
    for (size_t i = 0; i < sparse.size(); i += chunk) {
      const size_t end = std::min(sparse.size(), i + chunk);
      t->chunks.push_back(rfid::llrp::encodeStream(
          rfid::ReportStream(sparse.begin() + i, sparse.begin() + end)));
    }
    // ~11 KiB a tick: 1 + 11 units against 11 keep the shard over budget.
    t->floodReports = 280;
    load = t.get();
    return t;
  });
  ASSERT_NE(load, nullptr);
  const auto pressure = [&registry] {
    return registry.snapshot().gaugeValue("fleet.shard0.pressure");
  };

  constexpr double kTickS = 0.5;
  double t = 0.0;
  const auto tickUntil = [&](double endS) {
    for (; t < endS; t += kTickS) fleet.tick(t);
  };

  // Unloaded: the stream is in, and the first fix (due at 5 s) is served.
  tickUntil(10.0);
  EXPECT_EQ(fleet.shedLevel(), ShedLevel::kNone);
  EXPECT_EQ(fleet.stats().shedDegradedTicks, 0u);

  // Flooded: the level turns kDegraded on the first tick after the
  // smoothed pressure passes 0.9.
  load->flood = true;
  while (fleet.shedLevel() == ShedLevel::kNone) {
    ASSERT_LT(t, 25.0) << "the flood never degraded the shard";
    const double before = pressure();
    fleet.tick(t);
    t += kTickS;
    EXPECT_EQ(fleet.shedLevel(),
              before > 0.9 ? ShedLevel::kDegraded : ShedLevel::kNone)
        << "at t=" << t;
  }
  EXPECT_GT(fleet.stats().shedDegradedTicks, 0u);
  tickUntil(40.0);  // the second fix, due at 25 s, is served degraded

  // Unloaded again: the level holds through the band between 0.75 and
  // 0.9 and drops to kNone on the first tick after the pressure falls
  // below 0.75 (0.9 minus the 0.15 hysteresis).
  load->flood = false;
  bool heldInBand = false;
  while (fleet.shedLevel() != ShedLevel::kNone) {
    ASSERT_LT(t, 60.0) << "the shard never recovered";
    const double before = pressure();
    fleet.tick(t);
    t += kTickS;
    EXPECT_EQ(fleet.shedLevel() == ShedLevel::kNone, before < 0.75)
        << "at t=" << t;
    if (before < 0.9 && fleet.shedLevel() == ShedLevel::kDegraded) {
      heldInBand = true;
    }
  }
  EXPECT_TRUE(heldInBand);
  tickUntil(70.0);

  // The fix cadence: the next fix is due 20 s after one served at kNone
  // and 40 s after one served while degraded.
  ASSERT_EQ(fixes.size(), 3u);
  for (const Fix& fix : fixes) EXPECT_TRUE(fix.ok);
  EXPECT_EQ(fixes[0].level, ShedLevel::kNone);
  EXPECT_EQ(fixes[1].level, ShedLevel::kDegraded);
  EXPECT_DOUBLE_EQ(fixes[1].dueS - fixes[0].dueS, 20.0);
  EXPECT_DOUBLE_EQ(fixes[2].dueS - fixes[1].dueS, 40.0);
}

TEST(Fleet, MultiShardKillAndRestoreRecoversEverySession) {
  const std::string dir = tempDir("tagspin_fleet_restore");
  FleetConfig config = testFleetConfig();
  config.shards = 2;
  config.maxSessions = 4;
  config.checkpointDir = dir;

  const auto makeFactory = [](int reports, double baseT) {
    return [reports, baseT] {
      auto t = std::make_unique<OneShotTransport>();
      t->frame = frameWith(reports, baseT);
      return t;
    };
  };

  {
    FleetManager fleet(config, twoRigDeployment());
    for (int i = 0; i < 4; ++i) {
      fleet.registerSession("s" + std::to_string(i),
                            makeFactory(i + 1, 10.0 * i));
    }
    fleet.tick(0.0);
    fleet.tick(0.1);
    for (int i = 0; i < 4; ++i) {
      const Supervisor* sup = fleet.supervisor("s" + std::to_string(i));
      ASSERT_NE(sup, nullptr);
      ASSERT_EQ(sup->tagSnapshotCount(kTag0), static_cast<size_t>(i + 1));
    }
    fleet.shutdown(0.2);  // writes one batched checkpoint per shard
  }  // "kill -9": the whole fleet object is gone

  ASSERT_TRUE(std::filesystem::exists(dir + "/fleet_shard0.ckpt"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/fleet_shard1.ckpt"));

  FleetManager resumed(config, twoRigDeployment());
  for (int i = 0; i < 4; ++i) {
    // Fresh, empty transports: restored state must come from the files.
    resumed.registerSession("s" + std::to_string(i), makeFactory(0, 0.0));
  }
  EXPECT_EQ(resumed.restore(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Supervisor* sup = resumed.supervisor("s" + std::to_string(i));
    ASSERT_NE(sup, nullptr);
    EXPECT_EQ(sup->tagSnapshotCount(kTag0), static_cast<size_t>(i + 1))
        << "session s" << i << " lost state across the restart";
  }
  EXPECT_EQ(resumed.stats().checkpointFailures, 0u);

  std::filesystem::remove_all(dir);
}

/// A shard checkpoint's payload assembled the way FleetManager once did:
/// each member's text built in its own string, then appended after its
/// "session <name-len> <text-len>" line.  Kept as the byte oracle.
std::string oldShardPayload(size_t shardIndex,
                            const std::vector<std::string>& names,
                            const FleetManager& fleet, double nowS) {
  std::string payload = "fleet-shard v1\nshard " +
                        std::to_string(shardIndex) + "\nsessions " +
                        std::to_string(names.size()) + "\n";
  for (const std::string& name : names) {
    const std::string slice =
        core::checkpointToString(fleet.supervisor(name)->makeCheckpoint(nowS));
    payload += "session ";
    payload += std::to_string(name.size());
    payload += ' ';
    payload += std::to_string(slice.size());
    payload += '\n';
    payload += name;
    payload += slice;
  }
  return payload;
}

/// The session names of a shard payload, in file order.
std::vector<std::string> sessionNames(const std::string& payload) {
  std::vector<std::string> names;
  size_t pos = 0;
  while ((pos = payload.find("session ", pos)) != std::string::npos) {
    size_t nameLen = 0;
    size_t textLen = 0;
    int consumed = 0;
    if (std::sscanf(payload.c_str() + pos, "session %zu %zu\n%n", &nameLen,
                    &textLen, &consumed) != 2) {
      break;
    }
    pos += static_cast<size_t>(consumed);
    names.push_back(payload.substr(pos, nameLen));
    pos += nameLen + textLen;
  }
  return names;
}

TEST(Fleet, ShardCheckpointBytesMatchTheOldAssembly) {
  // Seeded sessions of different sizes over 2 shards: every shard file
  // must be byte for byte what the per-member-string assembly wrote.
  const std::string dir = tempDir("tagspin_fleet_bytes");
  FleetConfig config = testFleetConfig();
  config.shards = 2;
  config.maxSessions = 7;
  config.checkpointDir = dir;
  FleetManager fleet(config, twoRigDeployment());
  std::mt19937 rng(31);
  for (int i = 0; i < 7; ++i) {
    const int reports = 1 + static_cast<int>(rng() % 40);
    const double baseT = 3.0 * i + 0.001 * static_cast<double>(rng() % 997);
    fleet.registerSession("session-" + std::to_string(i * i), [=] {
      auto t = std::make_unique<OneShotTransport>();
      t->frame = frameWith(reports, baseT);
      return t;
    });
  }
  fleet.tick(0.0);
  fleet.tick(0.1);
  const double nowS = 0.25;
  fleet.shutdown(nowS);
  size_t sessions = 0;
  for (size_t shard = 0; shard < 2; ++shard) {
    std::ifstream in(dir + "/fleet_shard" + std::to_string(shard) + ".ckpt",
                     std::ios::binary);
    ASSERT_TRUE(in) << "shard " << shard;
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto payload = CheckpointStore::unframe(file);
    ASSERT_TRUE(payload) << "shard " << shard;
    const std::vector<std::string> names = sessionNames(*payload);
    sessions += names.size();
    EXPECT_EQ(file, CheckpointStore::frame(
                        oldShardPayload(shard, names, fleet, nowS)))
        << "shard " << shard;
  }
  EXPECT_EQ(sessions, 7u);
  EXPECT_EQ(fleet.stats().checkpointFailures, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Fleet, RestoreStopsAtSessionLengthsBeyondTheFile) {
  // A shard file with a valid CRC whose session line declares a slice
  // length that, added to the read position, wraps around to the start of
  // that same line.  Checked by summing, the line re-reads itself once per
  // declared session; each length must instead fit in the bytes left.
  const std::string dir = tempDir("tagspin_fleet_wrap");
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.checkpointDir = dir;
  FleetManager fleet(config, twoRigDeployment());
  fleet.registerSession("a",
                        [] { return std::make_unique<OneShotTransport>(); });

  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = 7;
  core::Snapshot s;
  s.lambdaM = 0.33;
  ckpt.tags[kTag0].snapshots.push_back(s);
  const std::string member = "a" + core::checkpointToString(ckpt);
  const std::string line = "session 1 18446744073709551584\n";
  ASSERT_EQ(line.size(), 31u);  // 2^64 - 32 + 1 name byte wraps back 31
  const auto writeShard = [&](const std::string& payload) {
    std::ofstream(dir + "/fleet_shard0.ckpt", std::ios::binary)
        << CheckpointStore::frame(payload);
  };

  writeShard("fleet-shard v1\nshard 0\nsessions 1000\n" + line + member);
  EXPECT_EQ(fleet.restore(), 0u);

  // A huge session count is harmless once every session must consume its
  // own bytes: the one member restores and the loop ends with the text.
  writeShard("fleet-shard v1\nshard 0\nsessions 18446744073709551615\n"
             "session 1 " +
             std::to_string(member.size() - 1) + "\n" + member);
  EXPECT_EQ(fleet.restore(), 1u);
  EXPECT_EQ(fleet.supervisor("a")->tagSnapshotCount(kTag0), 1u);
  EXPECT_EQ(fleet.stats().checkpointFailures, 0u);

  std::filesystem::remove_all(dir);
}

/// Connects instantly, idles until deliverAtS, then delivers one prebuilt
/// frame and idles forever.  Lets a test measure the fleet's pre-growth
/// memory footprint before the frame lands.
struct DelayedTransport final : Transport {
  double deliverAtS = 0.0;
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    return true;
  }
  TransportRead poll(double nowS) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (!delivered && nowS >= deliverAtS && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

/// One shard, two sessions: a "grower" whose frame lands at t=1.0 and blows
/// up its snapshot store, and a small "steady" neighbor.  Shared topology
/// for the memory-budget tests below.
FleetConfig memFleetConfig() {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 2;
  // Small ingest queues so the footprint is dominated by snapshot growth,
  // not by fixed ring capacity.
  config.supervisor.session.queueCapacity = 32;
  return config;
}

void registerMemFleetSessions(FleetManager& fleet) {
  fleet.registerSession("grower", [] {
    auto t = std::make_unique<DelayedTransport>();
    t->deliverAtS = 1.0;
    t->frame = frameWith(600, 0.0);
    return t;
  });
  fleet.registerSession("steady", [] {
    auto t = std::make_unique<OneShotTransport>();
    t->frame = frameWith(4, 10.0);
    return t;
  });
}

TEST(Fleet, MemoryBudgetTrimsUnderPressureWithoutLosingSessions) {
  core::PosixMemEnv env;

  // Calibration pass: same fleet, unlimited budget.  Measure the footprint
  // before and after the grower's frame lands so the budget for the real
  // pass can be pinned strictly between the two.
  uint64_t baseUsed = 0;
  uint64_t peakUsed = 0;
  {
    FleetConfig config = memFleetConfig();
    config.mem = &env;
    FleetManager fleet(config, twoRigDeployment());
    registerMemFleetSessions(fleet);
    for (double t = 0.0; t <= 0.5 + 1e-9; t += 0.1) fleet.tick(t);
    baseUsed = fleet.stats().memUsedBytes;
    for (double t = 0.6; t <= 3.0 + 1e-9; t += 0.1) fleet.tick(t);
    peakUsed = fleet.stats().memUsedBytes;
    // Accounting is on, and fault-free: bytes tracked, nothing denied.
    EXPECT_GT(baseUsed, 0u);
    EXPECT_EQ(fleet.stats().memDeniedReserves, 0u);
    EXPECT_EQ(fleet.stats().memTrims, 0u);
  }
  ASSERT_GT(peakUsed, baseUsed) << "the grower's frame never grew anything";

  // Budgeted pass: room for the base footprint plus half the growth.  The
  // grower's reservation must be denied at some point; the fleet's answer
  // is decimation (trim), never a crash and never collateral damage.
  const uint64_t budget = baseUsed + (peakUsed - baseUsed) / 2;
  FleetConfig config = memFleetConfig();
  config.mem = &env;
  config.memBudgetPerShardBytes = budget;
  FleetManager fleet(config, twoRigDeployment());
  registerMemFleetSessions(fleet);
  for (double t = 0.0; t <= 3.0 + 1e-9; t += 0.1) {
    fleet.tick(t);
    // Hard invariant, every tick: the arena never exceeds its budget.
    ASSERT_LE(fleet.stats().memUsedBytes, budget) << "at t=" << t;
  }

  const FleetStats stats = fleet.stats();
  EXPECT_GT(stats.memDeniedReserves, 0u);
  EXPECT_GT(stats.memTrims, 0u);
  EXPECT_EQ(stats.badAllocCaught, 0u);
  EXPECT_LE(stats.memPeakBytes, budget);
  EXPECT_GE(stats.memPeakBytes, stats.memUsedBytes);

  // No session was lost, and the pressure stayed contained to the grower:
  // the steady neighbor keeps its stream and is never quarantined.
  EXPECT_EQ(fleet.sessionCount(), 2u);
  for (const auto& v : fleet.sessions()) {
    if (v.name == "steady") EXPECT_FALSE(v.quarantined);
  }
  const Supervisor* steady = fleet.supervisor("steady");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->tagSnapshotCount(kTag0), 4u);
  EXPECT_EQ(steady->session(0).state(), SessionState::kStreaming);

  // The trims landed on the grower: its snapshot store was decimated below
  // what the unlimited run kept.
  const Supervisor* grower = fleet.supervisor("grower");
  ASSERT_NE(grower, nullptr);
  EXPECT_LT(grower->tagSnapshotCount(kTag0), 600u);
  EXPECT_GT(grower->tagSnapshotCount(kTag0), 0u);
}

TEST(Fleet, MemoryAccountingOffAndUnlimitedEnvBehaveIdentically) {
  // Three fleets over the same schedule: accounting off (mem = nullptr,
  // budgets 0 -- the pre-seam configuration), and accounting on with an
  // unlimited PosixMemEnv.  The seam must be a pure observer: identical
  // session outcomes, and the off-fleet reports all-zero memory counters.
  const auto run = [](core::MemEnv* mem) {
    FleetConfig config = memFleetConfig();
    config.mem = mem;
    auto fleet = std::make_unique<FleetManager>(config, twoRigDeployment());
    registerMemFleetSessions(*fleet);
    for (double t = 0.0; t <= 3.0 + 1e-9; t += 0.1) fleet->tick(t);
    return fleet;
  };

  core::PosixMemEnv env;
  const auto off = run(nullptr);
  const auto on = run(&env);

  const FleetStats offStats = off->stats();
  EXPECT_EQ(offStats.memUsedBytes, 0u);
  EXPECT_EQ(offStats.memPeakBytes, 0u);
  EXPECT_EQ(offStats.memDeniedReserves, 0u);
  EXPECT_EQ(offStats.memTrims, 0u);
  EXPECT_EQ(offStats.memEjections, 0u);
  EXPECT_EQ(off->memShedLevel(), ShedLevel::kNone);

  const FleetStats onStats = on->stats();
  EXPECT_GT(onStats.memUsedBytes, 0u);
  EXPECT_EQ(onStats.memDeniedReserves, 0u);
  EXPECT_EQ(on->memShedLevel(), ShedLevel::kNone);

  const auto offViews = off->sessions();
  const auto onViews = on->sessions();
  ASSERT_EQ(offViews.size(), onViews.size());
  for (size_t i = 0; i < offViews.size(); ++i) {
    EXPECT_EQ(offViews[i].name, onViews[i].name);
    EXPECT_EQ(offViews[i].state, onViews[i].state) << i;
    EXPECT_EQ(offViews[i].quarantined, onViews[i].quarantined) << i;
    EXPECT_EQ(offViews[i].fixes, onViews[i].fixes) << i;
  }
  for (const char* name : {"grower", "steady"}) {
    const Supervisor* a = off->supervisor(name);
    const Supervisor* b = on->supervisor(name);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->tagSnapshotCount(kTag0), b->tagSnapshotCount(kTag0)) << name;
  }
}

/// Run a small mixed fleet (healthy + dead + flapping) and return the
/// per-session views plus aggregate stats.
std::pair<std::vector<FleetManager::SessionView>, FleetStats> runMixedFleet(
    size_t workerThreads) {
  FleetConfig config = testFleetConfig();
  config.shards = 4;
  config.maxSessions = 12;
  config.workerThreads = workerThreads;
  config.supervisor.session.connectTimeoutS = 0.1;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.3;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  FleetManager fleet(config, twoRigDeployment());
  for (int i = 0; i < 12; ++i) {
    const std::string name = "m" + std::to_string(i);
    if (i % 3 == 0) {
      fleet.registerSession(name, [] {
        return std::make_unique<DeadTransport>();
      });
    } else if (i % 3 == 1) {
      fleet.registerSession(name, [i] {
        auto t = std::make_unique<FlapTransport>();
        t->healAtS = 4.0;
        t->frame = frameWith(3, 5.0 * i);
        return t;
      });
    } else {
      fleet.registerSession(name, [i] {
        auto t = std::make_unique<OneShotTransport>();
        t->frame = frameWith(5, 5.0 * i);
        return t;
      });
    }
  }
  for (double t = 0.0; t <= 12.0 + 1e-9; t += 0.1) fleet.tick(t);
  return {fleet.sessions(), fleet.stats()};
}

TEST(Fleet, WorkerPoolMatchesInlineExecutionExactly) {
  const auto [inlineViews, inlineStats] = runMixedFleet(0);
  const auto [pooledViews, pooledStats] = runMixedFleet(2);

  ASSERT_EQ(inlineViews.size(), pooledViews.size());
  for (size_t i = 0; i < inlineViews.size(); ++i) {
    EXPECT_EQ(inlineViews[i].name, pooledViews[i].name);
    EXPECT_EQ(inlineViews[i].shard, pooledViews[i].shard);
    EXPECT_EQ(inlineViews[i].state, pooledViews[i].state) << i;
    EXPECT_EQ(inlineViews[i].quarantined, pooledViews[i].quarantined) << i;
    EXPECT_EQ(inlineViews[i].flapEvents, pooledViews[i].flapEvents) << i;
  }
  EXPECT_EQ(inlineStats.ejections, pooledStats.ejections);
  EXPECT_EQ(inlineStats.readmissions, pooledStats.readmissions);
  EXPECT_EQ(inlineStats.budgetDenied, pooledStats.budgetDenied);
  EXPECT_EQ(inlineStats.sessionsDeferred, pooledStats.sessionsDeferred);
}

}  // namespace
}  // namespace tagspin::runtime
