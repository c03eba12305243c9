// Robust-estimation behaviour of the locator under adversarially corrupted
// spins: ghost-azimuth report mixing, quarantine-driven degradation,
// behind-origin bearings, tan-pole geometry and the bootstrap ellipse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/locator.hpp"
#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

RigObservation makeObservation(const geom::Vec3& center,
                               const geom::Vec3& reader, uint64_t seed,
                               double noise = 0.05) {
  RigObservation obs;
  obs.rig.center = center;
  obs.rig.kinematics = defaultKinematics();
  obs.rig.kinematics.initialAngle = 0.17 * static_cast<double>(seed);
  SyntheticConfig sc;
  sc.distanceM = (reader.xy() - center.xy()).norm();
  sc.readerAzimuth = geom::azimuthOf(center, reader);
  sc.noiseStd = noise;
  sc.seed = seed;
  sc.thetaDiv = 0.3 + 0.7 * static_cast<double>(seed);
  obs.snapshots = makeSnapshots(sc, obs.rig.kinematics);
  return obs;
}

/// A spin whose reports are a deterministic mix of two readers: the true
/// one and a ghost (multipath capture).  `ghostOutOf10` of every 10
/// snapshots come from the ghost -- at 6/10 the ghost lobe DOMINATES the
/// angle spectrum and the main peak points the wrong way.
RigObservation makeGhostMixedObservation(const geom::Vec3& center,
                                         const geom::Vec3& reader,
                                         const geom::Vec3& ghost,
                                         uint64_t seed, int ghostOutOf10) {
  RigObservation truth = makeObservation(center, reader, seed);
  const RigObservation haunted = [&] {
    RigObservation g;
    g.rig = truth.rig;
    SyntheticConfig sc;
    sc.distanceM = (ghost.xy() - center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(center, ghost);
    sc.noiseStd = 0.05;
    sc.seed = seed ^ 0x6057;
    sc.thetaDiv = 0.3 + 0.7 * static_cast<double>(seed);
    g.snapshots = makeSnapshots(sc, g.rig.kinematics);
    return g;
  }();
  // Both sets share the time grid, so index-mixing keeps timestamps sane.
  for (size_t i = 0; i < truth.snapshots.size(); ++i) {
    if (static_cast<int>(i % 10) < ghostOutOf10) {
      truth.snapshots[i] = haunted.snapshots[i];
    }
  }
  return truth;
}

const geom::Vec3 kReader{0.8, 2.0, 0.0};
const geom::Vec3 kGhost{-1.4, 1.0, 0.0};

std::vector<RigObservation> rigRowWithCorruption(int ghostOutOf10) {
  const std::vector<double> xs{-0.6, -0.2, 0.2, 0.6};
  std::vector<RigObservation> obs;
  for (size_t i = 0; i < xs.size(); ++i) {
    const geom::Vec3 center{xs[i], 0.0, 0.0};
    if (i == 1 && ghostOutOf10 > 0) {
      obs.push_back(makeGhostMixedObservation(center, kReader, kGhost, i + 1,
                                              ghostOutOf10));
    } else {
      obs.push_back(makeObservation(center, kReader, i + 1));
    }
  }
  return obs;
}

/// The paper estimator's fix: every rig kept (kKeepEveryRig).
Fix2D paperFix2D(const Locator& locator,
                 std::span<const RigObservation> obs) {
  Result<ResilientFix2D> res = locator.tryLocate2D(obs, kKeepEveryRig);
  if (!res) {
    ADD_FAILURE() << errorCodeName(res.code()) << ": " << res.error().message;
    return {};
  }
  return std::move(res->fix);
}

LocatorConfig baselineConfig() {
  LocatorConfig lc;
  lc.robust.diagnostics = false;
  lc.robust.consensus = false;
  return lc;
}

TEST(RobustLocator, ConsensusOutvotesGhostDominatedRig) {
  const std::vector<RigObservation> obs = rigRowWithCorruption(6);

  const Fix2D baseline = paperFix2D(Locator(baselineConfig()), obs);
  const double baselineErr = geom::distance(baseline.position, kReader.xy());

  const Fix2D robustFix = paperFix2D(Locator(), obs);  // defaults: robust on
  const double robustErr = geom::distance(robustFix.position, kReader.xy());

  // The ghost lobe dominates rig 1's spectrum, so the trusting baseline is
  // dragged off by tens of centimetres; consensus recovers the minority
  // true lobe (or outvotes the rig entirely).
  EXPECT_GT(baselineErr, 0.30);
  EXPECT_LT(robustErr, 0.15);
  EXPECT_LT(robustErr, 0.5 * baselineErr);
  EXPECT_TRUE(robustFix.estimation.consensusUsed);
  ASSERT_EQ(robustFix.estimation.spins.size(), obs.size());
  EXPECT_NE(robustFix.estimation.spins[1].verdict,
            robust::SpinVerdict::kAccept);
}

TEST(RobustLocator, CleanSpinsPayNoRobustnessTax) {
  const std::vector<RigObservation> obs = rigRowWithCorruption(0);
  const Fix2D baseline = paperFix2D(Locator(baselineConfig()), obs);
  const Fix2D robustFix = paperFix2D(Locator(), obs);
  // Single-candidate clean spectra: consensus reduces to the same weighted
  // least squares with all weights 1.
  EXPECT_LT(geom::distance(robustFix.position, baseline.position), 1e-6);
  EXPECT_DOUBLE_EQ(robustFix.estimation.inlierFraction, 1.0);
  for (const auto& spin : robustFix.estimation.spins) {
    EXPECT_EQ(spin.verdict, robust::SpinVerdict::kAccept);
  }
}

TEST(RobustLocator, NearFiftyFiftyMixIsQuarantinedAndDropped) {
  // A 50/50 report mix yields two near-equal lobes: unresolvable by the
  // spin alone.  tryLocate2D must drop the rig (degraded grade, downgraded
  // confidence) rather than let it vote.
  std::vector<RigObservation> obs{
      makeObservation({-0.6, 0.0, 0.0}, kReader, 1),
      makeObservation({0.2, 0.0, 0.0}, kReader, 3),
      makeGhostMixedObservation({-0.2, 0.0, 0.0}, kReader, kGhost, 2, 5)};

  const Locator locator;
  const auto fix = locator.tryLocate2D(obs);
  ASSERT_TRUE(fix.hasValue()) << fix.error().message;
  ASSERT_EQ(fix->report.rigHealth.size(), 3u);
  EXPECT_EQ(fix->report.rigHealth[2].spin.verdict,
            robust::SpinVerdict::kQuarantine);
  EXPECT_EQ(fix->report.grade, FixGrade::kDegraded);
  ASSERT_EQ(fix->report.droppedRigs.size(), 1u);
  EXPECT_EQ(fix->report.droppedRigs[0], 2u);
  EXPECT_LT(geom::distance(fix->fix.position, kReader.xy()), 0.10);

  // Same scene without the haunted rig at full grade: higher confidence.
  std::vector<RigObservation> clean{obs[0], obs[1]};
  const auto cleanFix = locator.tryLocate2D(clean);
  ASSERT_TRUE(cleanFix.hasValue());
  EXPECT_EQ(cleanFix->report.grade, FixGrade::kFull);
  EXPECT_GT(cleanFix->report.confidence, fix->report.confidence);
}

TEST(RobustLocator, BehindOriginRaySurfacedAndConfidenceDowngraded) {
  // One rig's bearing flipped by pi (mirror lobe): the two-ray intersection
  // lands BEHIND that rig.  The fix must carry the behind-origin count and
  // a confidence haircut relative to the clean geometry.
  std::vector<RigObservation> clean{
      makeObservation({-0.3, 0.0, 0.0}, kReader, 1),
      makeObservation({0.3, 0.0, 0.0}, kReader, 2)};

  std::vector<RigObservation> flipped{clean[0], clean[1]};
  {
    RigObservation mirror;
    mirror.rig = clean[1].rig;
    SyntheticConfig sc;
    sc.distanceM = (kReader.xy() - mirror.rig.center.xy()).norm();
    sc.readerAzimuth = geom::wrapTwoPi(
        geom::azimuthOf(mirror.rig.center, kReader) + geom::kPi);
    sc.noiseStd = 0.05;
    sc.seed = 2;
    mirror.snapshots = makeSnapshots(sc, mirror.rig.kinematics);
    flipped[1] = mirror;
  }

  const Locator locator;
  const auto good = locator.tryLocate2D(clean);
  ASSERT_TRUE(good.hasValue());
  EXPECT_EQ(good->fix.estimation.behindOriginRays, 0u);

  const auto bad = locator.tryLocate2D(flipped);
  ASSERT_TRUE(bad.hasValue());
  EXPECT_GE(bad->fix.estimation.behindOriginRays, 1u);
  ASSERT_EQ(bad->fix.estimation.rayT.size(), 2u);
  EXPECT_LT(*std::min_element(bad->fix.estimation.rayT.begin(),
                              bad->fix.estimation.rayT.end()),
            0.0);
  EXPECT_LT(bad->report.confidence, good->report.confidence);
}

TEST(RobustLocator, TanPoleGeometryStillLocates) {
  // Reader exactly straight ahead of rig 0: azimuth pi/2, the tan() pole
  // where the paper's Eqn. 9 closed form goes blind.  The locator must not
  // care -- it never touches intersectEqn9.
  const geom::Vec3 reader{-0.2, 2.0, 0.0};
  const std::vector<RigObservation> obs{
      makeObservation({-0.2, 0.0, 0.0}, reader, 1, 0.0),
      makeObservation({0.2, 0.0, 0.0}, reader, 2, 0.0)};
  const Fix2D fix = paperFix2D(Locator(), obs);
  EXPECT_LT(geom::distance(fix.position, reader.xy()), 0.05);
}

TEST(RobustLocator, BootstrapEllipseAttachedToFix) {
  LocatorConfig lc;
  lc.robust.bootstrap = true;
  // Calibrated bearing-noise region (the pairs default adds between-rig
  // spread, which on a collinear rig row dwarfs the cm noise scale this
  // test pins down).
  lc.robust.pairsBootstrap = false;
  const std::vector<RigObservation> obs = rigRowWithCorruption(0);
  const Fix2D fix = paperFix2D(Locator(lc), obs);
  ASSERT_TRUE(fix.estimation.ellipse.has_value());
  const auto& e = *fix.estimation.ellipse;
  EXPECT_DOUBLE_EQ(e.confidenceLevel, 0.90);
  EXPECT_GT(e.semiMinorM, 0.0);
  EXPECT_GE(e.semiMajorM, e.semiMinorM);
  EXPECT_LT(e.semiMajorM, 0.5);  // cm-regime noise, not metres
  EXPECT_TRUE(e.contains(fix.position));

  // Bootstrap off (the default): no ellipse is computed.
  const Fix2D plain = paperFix2D(Locator(), obs);
  EXPECT_FALSE(plain.estimation.ellipse.has_value());
}

}  // namespace
}  // namespace tagspin::core
