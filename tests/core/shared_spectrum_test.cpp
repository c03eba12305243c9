// One spectrum per rig per pass: tryLocate2D searches each rig's pass 0 once
// and both the health check and the spin diagnostics read that search's
// grid.  These differential tests pin what the locator reports to what the
// standalone entry points compute from their own sweeps, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "core/locator.hpp"
#include "eval/fleet.hpp"
#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_TRUE(sameBits((a), (b))) << #a " = " << (a) << ", " #b " = " << (b)

void expectSameQuality(const SpectrumQuality& got,
                       const SpectrumQuality& want) {
  EXPECT_SAME_BITS(got.peakValue, want.peakValue);
  EXPECT_SAME_BITS(got.halfPowerWidthDeg, want.halfPowerWidthDeg);
  EXPECT_SAME_BITS(got.peakRatio, want.peakRatio);
}

void expectSameSpin(const robust::SpinDiagnostics& got,
                    const robust::SpinDiagnostics& want) {
  EXPECT_SAME_BITS(got.peakValue, want.peakValue);
  EXPECT_SAME_BITS(got.peakToSidelobeRatio, want.peakToSidelobeRatio);
  EXPECT_EQ(got.ambiguousPeakCount, want.ambiguousPeakCount);
  EXPECT_SAME_BITS(got.lobeWidthDeg, want.lobeWidthDeg);
  EXPECT_SAME_BITS(got.ghostScore, want.ghostScore);
  EXPECT_EQ(got.verdict, want.verdict);
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (size_t c = 0; c < got.candidates.size(); ++c) {
    EXPECT_SAME_BITS(got.candidates[c].angleRad, want.candidates[c].angleRad);
    EXPECT_SAME_BITS(got.candidates[c].value, want.candidates[c].value);
  }
}

void expectSameHealth(const RigHealth& got, const RigHealth& want) {
  EXPECT_EQ(got.snapshotCount, want.snapshotCount);
  EXPECT_SAME_BITS(got.durationS, want.durationS);
  EXPECT_SAME_BITS(got.arcCoverage, want.arcCoverage);
  expectSameQuality(got.spectrum, want.spectrum);
  expectSameSpin(got.spin, want.spin);
  EXPECT_EQ(got.profileError, want.profileError);
}

/// The xy fix rebuilt from the public primitives the locator composes, for
/// rigs without an orientation model (one pass): per rig the configured
/// profile and its azimuth search, plus -- with diagnostics on -- the
/// spectrum's secondary candidates, refined near their grid angle; then the
/// intersection the config selects (consensus for >= 3 rigs, else the
/// two-ray or least-squares intersection).
geom::Vec2 oracleFix(const LocatorConfig& cfg,
                     std::span<const RigObservation> obs) {
  const SearchConfig& search = cfg.search;
  const robust::SpinDiagnosticsConfig& diag = cfg.robust.diagnosticsConfig;
  const double gridStep =
      geom::kTwoPi / static_cast<double>(search.azimuthGridPoints);
  const double minSep =
      gridStep * static_cast<double>(std::max<size_t>(
                     search.azimuthGridPoints / diag.minPeakSeparationDivisor,
                     1));
  std::vector<robust::BearingObservation> bearings;
  std::vector<geom::Ray2> rays;
  for (const RigObservation& o : obs) {
    const PowerProfile profile(o.snapshots, o.rig.kinematics, cfg.profile);
    const AzimuthEstimate peak = searchAzimuth(profile, search).peak;
    robust::BearingObservation bearing{
        o.rig.center.xy(), {{geom::wrapTwoPi(peak.azimuth), peak.value}}};
    if (cfg.robust.diagnostics) {
      const robust::SpinDiagnostics spin = robust::diagnoseSpectrum(
          profile.sampleAzimuth(search.azimuthGridPoints),
          1.0 - profile.weightStats(peak.azimuth).effectiveFraction, diag);
      for (size_t c = 1; c < spin.candidates.size(); ++c) {
        const double angle = spin.candidates[c].angleRad;
        if (geom::circularDistance(angle, peak.azimuth) < minSep) continue;
        const AzimuthEstimate refined = refineAzimuthNear(
            profile, angle, gridStep, search.refineRounds);
        bearing.candidates.push_back({refined.azimuth, refined.value});
      }
    }
    bearings.push_back(std::move(bearing));
    rays.push_back({o.rig.center.xy(), peak.azimuth});
  }
  if (cfg.robust.consensus && obs.size() >= 3) {
    if (const auto consensus = robust::consensusIntersection(
            bearings, cfg.robust.consensusConfig)) {
      return consensus->position;
    }
  }
  if (rays.size() == 2) {
    if (const auto hit = geom::intersectRays(rays[0], rays[1])) {
      return hit->point;
    }
  }
  const auto solved = geom::leastSquaresIntersectionDetailed(rays);
  EXPECT_TRUE(solved.has_value()) << "oracle rays are parallel";
  return solved ? solved->point : geom::Vec2{};
}

/// Three rigs in a row watching `reader`; noise and ambient outliers make
/// the spectra imperfect (secondary lobes, ghost scores above zero).
/// `starved` rigs keep only their first 12 snapshots, below the default
/// 16-snapshot health gate.
std::vector<RigObservation> threeRigs(const geom::Vec3& reader, uint64_t seed,
                                      std::vector<size_t> starved = {}) {
  std::vector<RigObservation> obs;
  for (size_t k = 0; k < 3; ++k) {
    RigObservation o;
    o.rig.center = {-0.5 + 0.5 * static_cast<double>(k), 0.0, 0.0};
    o.rig.kinematics = defaultKinematics();
    o.rig.kinematics.initialAngle = 0.37 * static_cast<double>(k);
    SyntheticConfig sc;
    sc.distanceM = (reader.xy() - o.rig.center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(o.rig.center, reader);
    sc.noiseStd = 0.15;
    sc.outlierProb = 0.05;
    sc.count = 1024;
    sc.seed = seed * 31 + k;
    sc.thetaDiv = 0.4 + 0.9 * static_cast<double>(k);
    o.snapshots = makeSnapshots(sc, o.rig.kinematics);
    for (size_t s : starved) {
      if (s == k) o.snapshots.resize(12);
    }
    obs.push_back(std::move(o));
  }
  return obs;
}

const geom::Vec3 kReaders[] = {
    {0.7, 1.9, 0.0}, {-1.2, 1.4, 0.0}, {0.2, 2.6, 0.0}};
const uint64_t kSeeds[] = {1, 7919};

TEST(SharedSpectrum, PaperConfigHealthAndSpinsMatchStandaloneSweeps) {
  const LocatorConfig cfg;  // paper config: 720-point grid, diagnostics on
  const Locator locator(cfg);
  const robust::SpinDiagnosticsConfig& diag = cfg.robust.diagnosticsConfig;
  for (const uint64_t seed : kSeeds) {
    for (const geom::Vec3& reader : kReaders) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " reader "
                                        << reader.x << "," << reader.y);
      const std::vector<RigObservation> obs = threeRigs(reader, seed);
      const auto res = locator.tryLocate2D(obs);
      ASSERT_TRUE(res) << res.error().message;
      ASSERT_EQ(res->report.usedRigs.size(), 3u);
      for (size_t i = 0; i < obs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "rig " << i);
        expectSameHealth(
            res->report.rigHealth[i],
            assessRigHealth(obs[i].snapshots, obs[i].rig.kinematics,
                            cfg.profile, &diag));
        // No model: the only pass is pass 0, on the configured profile.
        const PowerProfile profile(obs[i].snapshots, obs[i].rig.kinematics,
                                   cfg.profile);
        const double peak = estimateAzimuth(profile, cfg.search).azimuth;
        expectSameSpin(
            res->fix.estimation.spins[i],
            robust::diagnoseSpectrum(
                profile.sampleAzimuth(720),
                1.0 - profile.weightStats(peak).effectiveFraction, diag));
      }
      // The shared pass 0 leaves the fix exactly as a fresh search has it.
      const geom::Vec2 want = oracleFix(cfg, obs);
      EXPECT_SAME_BITS(res->fix.position.x, want.x);
      EXPECT_SAME_BITS(res->fix.position.y, want.y);
    }
  }
}

TEST(SharedSpectrum, DroppedRigHealthMatchesAndFixUsesTheRest) {
  const LocatorConfig cfg;
  const Locator locator(cfg);
  const robust::SpinDiagnosticsConfig& diag = cfg.robust.diagnosticsConfig;
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const std::vector<RigObservation> obs =
        threeRigs(kReaders[0], seed, /*starved=*/{1});
    const auto res = locator.tryLocate2D(obs);
    ASSERT_TRUE(res) << res.error().message;
    EXPECT_EQ(res->report.grade, FixGrade::kDegraded);
    ASSERT_EQ(res->report.droppedRigs, (std::vector<size_t>{1}));
    for (size_t i = 0; i < obs.size(); ++i) {
      expectSameHealth(res->report.rigHealth[i],
                       assessRigHealth(obs[i].snapshots,
                                       obs[i].rig.kinematics, cfg.profile,
                                       &diag));
    }
    const std::vector<RigObservation> used{obs[0], obs[2]};
    const geom::Vec2 want = oracleFix(cfg, used);
    EXPECT_SAME_BITS(res->fix.position.x, want.x);
    EXPECT_SAME_BITS(res->fix.position.y, want.y);
  }
}

TEST(SharedSpectrum, FleetConfigHealthReadsTheSearchGrid) {
  // The fleet searches a 180-point grid; health reads that grid, not a
  // 720-point sweep of its own.
  const LocatorConfig cfg =
      eval::FleetEvalConfig::defaultFleetConfig().supervisor.locator;
  ASSERT_EQ(cfg.search.azimuthGridPoints, 180u);
  const Locator locator(cfg);
  for (const uint64_t seed : kSeeds) {
    for (const geom::Vec3& reader : kReaders) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " reader "
                                        << reader.x << "," << reader.y);
      const std::vector<RigObservation> obs = threeRigs(reader, seed);
      const auto res = locator.tryLocate2D(obs);
      ASSERT_TRUE(res) << res.error().message;
      for (size_t i = 0; i < obs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "rig " << i);
        const PowerProfile profile(obs[i].snapshots, obs[i].rig.kinematics,
                                   cfg.profile);
        const RigHealth& h = res->report.rigHealth[i];
        expectSameQuality(h.spectrum,
                          assessSpectrumSamples(profile.sampleAzimuth(180)));
        const RigHealth coverage =
            assessRigHealth(obs[i].snapshots, obs[i].rig.kinematics);
        EXPECT_EQ(h.snapshotCount, coverage.snapshotCount);
        EXPECT_SAME_BITS(h.arcCoverage, coverage.arcCoverage);
        EXPECT_EQ(h.spin.verdict, robust::SpinVerdict::kAccept);
      }
      const geom::Vec2 want = oracleFix(cfg, obs);
      EXPECT_SAME_BITS(res->fix.position.x, want.x);
      EXPECT_SAME_BITS(res->fix.position.y, want.y);
    }
  }
}

TEST(SharedSpectrum, WithOrientationModelsHealthReadsTheUncorrectedR) {
  // With a model installed, pass 0 searches Q (the calibration loop starts
  // from the orientation-robust relative profile), so health cannot share
  // it: it must still come from R on the raw snapshots.
  auto g = [](double rho) { return 0.33 * std::cos(2.0 * rho); };
  const RigKinematics center{0.0, 0.5, 0.0, geom::kPi / 2.0};
  SyntheticConfig fitCfg;
  fitCfg.count = 1200;
  fitCfg.orientation = g;
  fitCfg.noiseStd = 0.05;
  const OrientationModel model = OrientationModel::fit(
      makeSnapshots(fitCfg, center), center, fitCfg.readerAzimuth);
  ASSERT_FALSE(model.isIdentity());

  const LocatorConfig cfg;
  ASSERT_EQ(cfg.profile.formula, ProfileFormula::kEnhancedR);
  ProfileConfig relative = cfg.profile;
  relative.formula = ProfileFormula::kRelativeQ;
  const Locator locator(cfg);
  const robust::SpinDiagnosticsConfig& diag = cfg.robust.diagnosticsConfig;
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::vector<RigObservation> obs = threeRigs(kReaders[0], seed);
    for (RigObservation& o : obs) o.orientation = model;
    const auto res = locator.tryLocate2D(obs);
    ASSERT_TRUE(res) << res.error().message;
    for (size_t i = 0; i < obs.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "rig " << i);
      const RigHealth r = assessRigHealth(
          obs[i].snapshots, obs[i].rig.kinematics, cfg.profile, &diag);
      expectSameHealth(res->report.rigHealth[i], r);
      // The check can tell the two profiles apart.
      const RigHealth q = assessRigHealth(
          obs[i].snapshots, obs[i].rig.kinematics, relative, &diag);
      EXPECT_FALSE(sameBits(q.spectrum.peakValue, r.spectrum.peakValue));
    }
  }
}

}  // namespace
}  // namespace tagspin::core
