// Graceful-degradation locator: a served fix must match the paper
// estimator's (every rig kept) bit-for-bit on clean input, drop unhealthy
// rigs with an audit trail on dirty input, and report every failure cause as
// an ErrorCode.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/power_profile.hpp"
#include "core/spectrum.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"
#include "synthetic.hpp"

namespace tagspin {
namespace {

sim::World makeThreeRigWorld(uint64_t seed = 17) {
  sim::ScenarioConfig sc;
  sc.seed = seed;
  sc.fixedChannel = true;
  return sim::makeRigRowWorld(sc, 3);
}

/// Make the channel ideal: no ambient-interference outliers (3% of reads by
/// default), no Gaussian phase noise (whose 3-sigma tails the Hampel filter
/// legitimately trims), no multipath (a deep fade produces an abrupt phase
/// excursion that is flagged the same way).  The bit-identity tests compare
/// the served fix with the locator's kKeepEveryRig fix over the same robust
/// observations, which must agree when every rig is healthy; a stream with
/// nothing to repair keeps every rig healthy.
void disableInterference(sim::World& world) {
  rf::ChannelConfig cc = world.channel.config();
  cc.phaseOutlierProb = 0.0;
  cc.phaseNoiseStd = 0.0;
  cc.multipathEnabled = false;
  world.channel = rf::BackscatterChannel(cc, world.channel.scatterers());
}

rfid::ReportStream interrogateAt(sim::World& world, const geom::Vec3& truth,
                                 double durationS = 15.0) {
  sim::placeReaderAntenna(world, 0, truth);
  sim::InterrogateConfig ic;
  ic.durationS = durationS;
  ic.antennaPort = 0;
  return sim::interrogate(world, ic);
}

/// Keep only the first `count` reports of `epc` (plus everything else).
rfid::ReportStream starveTag(const rfid::ReportStream& reports,
                             const rfid::Epc& epc, size_t count) {
  rfid::ReportStream out;
  size_t kept = 0;
  for (const rfid::TagReport& r : reports) {
    if (r.epc == epc && kept >= count) continue;
    if (r.epc == epc) ++kept;
    out.push_back(r);
  }
  return out;
}

TEST(Resilience, CleanStream2DIsBitIdenticalToStrictPath) {
  sim::World world = makeThreeRigWorld();
  disableInterference(world);
  const geom::Vec3 truth{0.5, 1.9, 0.0};
  const auto reports = interrogateAt(world, truth);
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});

  const auto strictRes = server.locator().tryLocate2D(
      server.collectObservationsRobust(reports), core::kKeepEveryRig);
  ASSERT_TRUE(strictRes) << strictRes.error().message;
  const core::Fix2D& strict = strictRes->fix;
  const core::Result<core::ResilientFix2D> res = server.tryLocate2D(reports);
  ASSERT_TRUE(res) << res.error().message;

  EXPECT_EQ(res->report.grade, core::FixGrade::kFull);
  EXPECT_EQ(res->report.usedRigs.size(), 3u);
  EXPECT_TRUE(res->report.droppedRigs.empty());
  EXPECT_GT(res->report.confidence, 0.0);
  EXPECT_LE(res->report.confidence, 1.0);

  // Bit-identity, not approximation: the resilient path on a clean stream
  // must run the exact same numbers through the exact same code.
  EXPECT_EQ(res->fix.position.x, strict.position.x);
  EXPECT_EQ(res->fix.position.y, strict.position.y);
  ASSERT_EQ(res->fix.directions.size(), strict.directions.size());
  for (size_t i = 0; i < strict.directions.size(); ++i) {
    EXPECT_EQ(res->fix.directions[i].azimuth, strict.directions[i].azimuth);
  }
}

TEST(Resilience, CleanStream3DIsBitIdenticalToStrictPath) {
  sim::World world = makeThreeRigWorld(23);
  disableInterference(world);
  const geom::Vec3 truth{-0.4, 2.1, 0.6};
  const auto reports = interrogateAt(world, truth);
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});

  const auto strictRes = server.locator().tryLocate3D(
      server.collectObservationsRobust(reports), core::kKeepEveryRig);
  ASSERT_TRUE(strictRes) << strictRes.error().message;
  const core::Fix3D& strict = strictRes->fix;
  const core::Result<core::ResilientFix3D> res = server.tryLocate3D(reports);
  ASSERT_TRUE(res) << res.error().message;
  EXPECT_EQ(res->report.grade, core::FixGrade::kFull);
  EXPECT_EQ(res->fix.position.x, strict.position.x);
  EXPECT_EQ(res->fix.position.y, strict.position.y);
  EXPECT_EQ(res->fix.position.z, strict.position.z);
}

TEST(Resilience, ThreeDFixCountsTheCellsItsSearchesRechecked) {
  // locator.spatial_rechecked_cells adds up each 3D search's re-checked
  // cells: here one search per rig (no orientation model, one pass).
  sim::World world = makeThreeRigWorld(23);
  disableInterference(world);
  const auto reports = interrogateAt(world, {-0.4, 2.1, 0.6});
  obs::MetricsRegistry registry;
  core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  server.setMetrics(&registry);
  ASSERT_TRUE(server.tryLocate2D(reports));
  EXPECT_EQ(registry.snapshot().counterValue("locator.spatial_rechecked_cells"),
            0u);
  ASSERT_TRUE(server.tryLocate3D(reports));
  uint64_t want = 0;
  for (const core::RigObservation& o :
       server.collectObservationsRobust(reports)) {
    const core::PowerProfile profile(o.snapshots, o.rig.kinematics,
                                     server.locator().config().profile);
    want += core::estimateSpatial(profile, server.locator().config().search)
                .recheckedCells;
  }
  EXPECT_GT(want, 0u);
  EXPECT_EQ(registry.snapshot().counterValue("locator.spatial_rechecked_cells"),
            want);
}

/// The ways one report can carry a non-finite field.
struct NonFiniteReport {
  const char* name;
  void (*breakIt)(rfid::TagReport&);
};

const NonFiniteReport kNonFiniteReports[] = {
    {"NaN phase", [](rfid::TagReport& r) { r.phaseRad = std::nan(""); }},
    {"NaN timestamp", [](rfid::TagReport& r) { r.timestampS = std::nan(""); }},
    {"infinite timestamp",
     [](rfid::TagReport& r) { r.timestampS = HUGE_VAL; }},
    {"NaN frequency", [](rfid::TagReport& r) { r.frequencyHz = std::nan(""); }},
};

TEST(Resilience, NonFiniteReportGivesTheErasedStreamsFix) {
  // One revolution (4 pi s at 0.5 rad/s) of 2 and 3 rigs.  One report with
  // a non-finite field used to poison its rig's whole spectrum: 2 rigs gave
  // too_few_healthy_rigs, 3 rigs dropped a healthy rig.  Dropped at ingest,
  // it leaves exactly the fix of the stream without it.
  for (const int rigs : {2, 3}) {
    sim::ScenarioConfig sc;
    sc.seed = 11;
    sim::World world = sim::makeRigRowWorld(sc, rigs);
    const auto reports = interrogateAt(world, {0.5, 1.9, 0.0}, 4.0 * geom::kPi);
    const size_t victim = reports.size() / 2;
    rfid::ReportStream erased = reports;
    erased.erase(erased.begin() + static_cast<ptrdiff_t>(victim));
    const core::TagspinSystem reference =
        eval::buildTagspinServer(world, {}, {});
    const auto want = reference.tryLocate2D(erased);
    ASSERT_TRUE(want) << want.error().message;
    EXPECT_EQ(want->report.grade, core::FixGrade::kFull);
    for (const NonFiniteReport& bad : kNonFiniteReports) {
      SCOPED_TRACE(std::to_string(rigs) + " rigs, " + bad.name);
      rfid::ReportStream dirty = reports;
      bad.breakIt(dirty[victim]);
      obs::MetricsRegistry registry;
      core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
      server.setMetrics(&registry);
      const auto got = server.tryLocate2D(dirty);
      ASSERT_TRUE(got) << got.error().message;
      EXPECT_EQ(got->fix.position.x, want->fix.position.x);
      EXPECT_EQ(got->fix.position.y, want->fix.position.y);
      ASSERT_EQ(got->fix.directions.size(), want->fix.directions.size());
      for (size_t i = 0; i < want->fix.directions.size(); ++i) {
        EXPECT_EQ(got->fix.directions[i].azimuth,
                  want->fix.directions[i].azimuth);
      }
      EXPECT_EQ(got->report.grade, want->report.grade);
      EXPECT_EQ(got->report.usedRigs, want->report.usedRigs);
      EXPECT_EQ(got->report.confidence, want->report.confidence);
      EXPECT_EQ(
          registry.snapshot().counterValue("preprocess.nonfinite_dropped"),
          1u);
    }
  }
}

TEST(Resilience, StarvedRigIsDroppedWithReasonAndDegradedGrade) {
  sim::World world = makeThreeRigWorld();
  const geom::Vec3 truth{0.5, 1.9, 0.0};
  const auto reports = interrogateAt(world, truth);
  // Rig 2 keeps 8 reports: enough to be offered as an observation (>= 2),
  // far below the default minSnapshots = 16 health gate.
  const rfid::Epc starved = world.rigs[2].tag.epc;
  const auto dirty = starveTag(reports, starved, 8);

  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  const core::Result<core::ResilientFix2D> res = server.tryLocate2D(dirty);
  ASSERT_TRUE(res) << res.error().message;

  EXPECT_EQ(res->report.grade, core::FixGrade::kDegraded);
  EXPECT_EQ(res->report.usedRigs.size(), 2u);
  ASSERT_EQ(res->report.droppedRigs.size(), 1u);
  ASSERT_EQ(res->report.droppedReasons.size(), 1u);
  EXPECT_NE(res->report.droppedReasons[0].find("snapshots"), std::string::npos)
      << res->report.droppedReasons[0];
  // Confidence carries the explicit x0.7 degradation cap.
  EXPECT_GT(res->report.confidence, 0.0);
  EXPECT_LE(res->report.confidence, 0.7);
  // Two healthy rigs still produce a usable fix.
  EXPECT_LT(geom::distance(res->fix.position, truth.xy()), 0.8);
}

TEST(Resilience, MinimalGradeWhenNoRigPassesTheGate) {
  sim::World world = makeThreeRigWorld();
  const geom::Vec3 truth{0.3, 2.0, 0.0};
  const auto reports = interrogateAt(world, truth);

  core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  core::RigHealthThresholds impossible;
  impossible.minSnapshots = 1000000;  // nothing is "healthy" now
  server.setHealthThresholds(impossible);

  const core::Result<core::ResilientFix2D> res = server.tryLocate2D(reports);
  ASSERT_TRUE(res) << res.error().message;
  EXPECT_EQ(res->report.grade, core::FixGrade::kMinimal);
  EXPECT_EQ(res->report.usedRigs.size(), 2u);  // best-pair fallback
  EXPECT_LE(res->report.confidence, 0.4);      // x0.4 minimal cap
  EXPECT_LT(geom::distance(res->fix.position, truth.xy()), 0.8);
}

TEST(Resilience, EmptyAndSilentStreamsReportTooFewRigs) {
  sim::World world = makeThreeRigWorld();
  const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});

  const auto empty2d = server.tryLocate2D({});
  ASSERT_FALSE(empty2d);
  EXPECT_EQ(empty2d.error().code, core::ErrorCode::kTooFewRigs);
  // The message must name the deployment and the stream so an operator can
  // tell "no rigs registered" from "rigs registered but nothing heard".
  EXPECT_NE(empty2d.error().message.find("0 of 3"), std::string::npos)
      << empty2d.error().message;
  EXPECT_NE(empty2d.error().message.find("0 reports"), std::string::npos)
      << empty2d.error().message;

  const auto empty3d = server.tryLocate3D({});
  ASSERT_FALSE(empty3d);
  EXPECT_EQ(empty3d.error().code, core::ErrorCode::kTooFewRigs);

  // A stream where only one rig speaks is just as unusable.
  const geom::Vec3 truth{0.5, 1.9, 0.0};
  auto reports = interrogateAt(world, truth);
  rfid::ReportStream oneRig;
  for (const rfid::TagReport& r : reports) {
    if (r.epc == world.rigs[0].tag.epc) oneRig.push_back(r);
  }
  const auto single = server.tryLocate2D(oneRig);
  ASSERT_FALSE(single);
  EXPECT_EQ(single.error().code, core::ErrorCode::kTooFewRigs);
}

TEST(Resilience, UnusableObservationsReportTooFewHealthyRigs) {
  // Two rigs offered, each with a single snapshot: not even the minimal
  // fallback can build a spectrum from one phase sample.
  core::RigObservation a;
  a.rig.center = {0.0, 0.0, 0.0};
  a.rig.kinematics = core::testing::defaultKinematics();
  core::Snapshot s;
  s.timeS = 0.0;
  s.phaseRad = 1.0;
  s.lambdaM = 0.325;
  a.snapshots = {s};
  core::RigObservation b = a;
  b.rig.center = {2.0, 0.0, 0.0};

  const core::Locator locator;
  const std::vector<core::RigObservation> obs = {a, b};
  const auto res = locator.tryLocate2D(obs);
  ASSERT_FALSE(res);
  EXPECT_EQ(res.error().code, core::ErrorCode::kTooFewHealthyRigs);
}

TEST(Resilience, ParallelRaysReportDegenerateGeometry) {
  // Two rigs with *identical* kinematics and snapshots estimate bitwise
  // identical azimuths; from distinct centers that is an exactly parallel
  // ray pair, which must come back as an ErrorCode, not an exception.
  core::testing::SyntheticConfig cfg;
  cfg.readerAzimuth = 0.7;
  const auto snaps = core::testing::makeSnapshots(cfg);

  core::RigObservation a;
  a.rig.center = {0.0, 0.0, 0.0};
  a.rig.kinematics = core::testing::defaultKinematics();
  a.snapshots = snaps;
  core::RigObservation b = a;
  b.rig.center = {2.0, 0.0, 0.0};

  const core::Locator locator;
  const auto res = locator.tryLocate2D(std::vector<core::RigObservation>{a, b});
  ASSERT_FALSE(res);
  EXPECT_EQ(res.error().code, core::ErrorCode::kDegenerateGeometry);
}

/// `rigs` rigs in a row, 0.6 m apart, watching a reader at (0.7, 1.9), from
/// synthetic snapshots.
std::vector<core::RigObservation> syntheticRow(size_t rigs) {
  const geom::Vec3 reader{0.7, 1.9, 0.0};
  std::vector<core::RigObservation> obs;
  for (size_t k = 0; k < rigs; ++k) {
    core::RigObservation o;
    o.rig.center = {-0.6 + 0.6 * static_cast<double>(k), 0.0, 0.0};
    o.rig.kinematics = core::testing::defaultKinematics();
    core::testing::SyntheticConfig sc;
    sc.distanceM = (reader.xy() - o.rig.center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(o.rig.center, reader);
    sc.noiseStd = 0.05;
    sc.seed = 11 + k;
    o.snapshots = core::testing::makeSnapshots(sc, o.rig.kinematics);
    obs.push_back(std::move(o));
  }
  return obs;
}

/// Each way one rig's PowerProfile can be unbuildable from observations a
/// deployment file or a decoder may hand the locator.
struct BrokenRig {
  const char* name;
  void (*breakIt)(core::RigObservation&);
  const char* reason;
};

const BrokenRig kBrokenRigs[] = {
    {"zero radius",
     [](core::RigObservation& o) { o.rig.kinematics.radiusM = 0.0; },
     "rig radius must be > 0"},
    {"negative wavelength",
     [](core::RigObservation& o) { o.snapshots[5].lambdaM = -0.325; },
     "snapshot missing wavelength"},
    {"NaN radius",
     [](core::RigObservation& o) { o.rig.kinematics.radiusM = std::nan(""); },
     "rig radius must be > 0 and finite"},
    {"infinite wavelength",
     [](core::RigObservation& o) { o.snapshots[5].lambdaM = HUGE_VAL; },
     "snapshot missing wavelength"},
    {"NaN phase",
     [](core::RigObservation& o) { o.snapshots[5].phaseRad = std::nan(""); },
     "snapshot time and phase must be finite"},
};

TEST(Resilience, UnbuildableRigIsDroppedWithTheConstructorsReason) {
  // One of three rigs cannot be profiled: tryLocate2D/3D must drop it with
  // the PowerProfile constructor's message and fix on the other two.  With
  // no peak gate (minPeakValue = 0) the profile error alone must drop it.
  const core::Locator locator;
  core::RigHealthThresholds noPeakGate;
  noPeakGate.minPeakValue = 0.0;
  for (const BrokenRig& broken : kBrokenRigs) {
    for (const core::RigHealthThresholds& thresholds :
         {core::RigHealthThresholds{}, noPeakGate}) {
      SCOPED_TRACE(std::string(broken.name) + ", minPeakValue " +
                   std::to_string(thresholds.minPeakValue));
      std::vector<core::RigObservation> obs = syntheticRow(3);
      broken.breakIt(obs[1]);
      const auto check = [&](const core::ResilienceReport& report) {
        EXPECT_EQ(report.grade, core::FixGrade::kDegraded);
        EXPECT_EQ(report.usedRigs, (std::vector<size_t>{0, 2}));
        ASSERT_EQ(report.droppedRigs, (std::vector<size_t>{1}));
        EXPECT_NE(report.droppedReasons[0].find(broken.reason),
                  std::string::npos)
            << report.droppedReasons[0];
        EXPECT_EQ(report.rigHealth[1].profileError,
                  report.droppedReasons[0]);
        EXPECT_FALSE(core::isHealthy(report.rigHealth[1], thresholds));
      };
      // An exception escaping either call fails the test.
      const auto fix2 = locator.tryLocate2D(obs, thresholds);
      ASSERT_TRUE(fix2) << fix2.error().message;
      check(fix2->report);
      EXPECT_LT(geom::distance(fix2->fix.position, geom::Vec2{0.7, 1.9}),
                0.05);
      const auto fix3 = locator.tryLocate3D(obs, thresholds);
      ASSERT_TRUE(fix3) << fix3.error().message;
      check(fix3->report);
    }
  }
}

TEST(Resilience, UnbuildableRigOfTwoReportsTooFewHealthyRigs) {
  // Two rigs, one unbuildable: no fix, but an ErrorCode and never a throw.
  const core::Locator locator;
  for (const BrokenRig& broken : kBrokenRigs) {
    SCOPED_TRACE(broken.name);
    std::vector<core::RigObservation> obs = syntheticRow(2);
    broken.breakIt(obs[0]);
    // An exception escaping either call fails the test.
    const auto fix2 = locator.tryLocate2D(obs);
    ASSERT_FALSE(fix2);
    EXPECT_EQ(fix2.error().code, core::ErrorCode::kTooFewHealthyRigs);
    const auto fix3 = locator.tryLocate3D(obs);
    ASSERT_FALSE(fix3);
    EXPECT_EQ(fix3.error().code, core::ErrorCode::kTooFewHealthyRigs);
  }
}

TEST(Resilience, ResultAndErrorCodeBasics) {
  core::Result<int> ok = 42;
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, 42);
  core::Result<int> bad = core::Error{core::ErrorCode::kMalformedFrame, "x"};
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, core::ErrorCode::kMalformedFrame);
  EXPECT_STREQ(core::errorCodeName(core::ErrorCode::kTooFewRigs),
               "too_few_rigs");
  EXPECT_STREQ(core::errorCodeName(core::ErrorCode::kDegenerateGeometry),
               "degenerate_geometry");
}

}  // namespace
}  // namespace tagspin
