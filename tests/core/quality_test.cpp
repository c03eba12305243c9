#include "core/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

PowerProfile profileWith(double noise, double outliers,
                         ProfileFormula f = ProfileFormula::kEnhancedR) {
  SyntheticConfig sc;
  sc.readerAzimuth = 2.0;
  sc.noiseStd = noise;
  sc.outlierProb = outliers;
  ProfileConfig pc;
  pc.formula = f;
  return PowerProfile(makeSnapshots(sc), defaultKinematics(), pc);
}

SpectrumQuality qualityOf(const PowerProfile& profile) {
  return assessSpectrumSamples(profile.sampleAzimuth(720));
}

TEST(AssessSpectrum, CleanTraceScoresWell) {
  const SpectrumQuality q = qualityOf(profileWith(0.01, 0.0));
  EXPECT_GT(q.peakValue, 0.95);
  EXPECT_LT(q.halfPowerWidthDeg, 30.0);
  EXPECT_GT(q.peakRatio, 1.5);
}

TEST(AssessSpectrum, NoiseWeakensPeak) {
  const SpectrumQuality clean = qualityOf(profileWith(0.02, 0.0));
  const SpectrumQuality noisy = qualityOf(profileWith(0.4, 0.10));
  EXPECT_GT(clean.peakValue, noisy.peakValue);
}

TEST(AssessSpectrum, RSharperThanQInWidth) {
  const SpectrumQuality r =
      qualityOf(profileWith(0.1, 0.0, ProfileFormula::kEnhancedR));
  const SpectrumQuality q =
      qualityOf(profileWith(0.1, 0.0, ProfileFormula::kRelativeQ));
  EXPECT_LT(r.halfPowerWidthDeg, q.halfPowerWidthDeg);
}

TEST(BearingGdop, PerpendicularBeatsShallow) {
  // Two rays crossing at 90 deg vs crossing at ~11 deg at the same range.
  const geom::Vec2 fix{0.0, 2.0};
  const std::vector<geom::Ray2> good{
      {{-2.0, 2.0}, 0.0},          // from the left, pointing +x
      {{0.0, 0.0}, geom::kPi / 2}  // from below, pointing +y
  };
  const std::vector<geom::Ray2> shallow{
      {{-0.2, 0.0}, (fix - geom::Vec2{-0.2, 0.0}).angle()},
      {{0.2, 0.0}, (fix - geom::Vec2{0.2, 0.0}).angle()}};
  EXPECT_LT(bearingGdop(good, fix), bearingGdop(shallow, fix));
}

TEST(BearingGdop, GrowsWithRange) {
  const std::vector<geom::Ray2> rays{
      {{-0.2, 0.0}, geom::kPi / 3}, {{0.2, 0.0}, 2 * geom::kPi / 3}};
  // Same rays evaluated at nearer / farther hypothetical fixes.
  EXPECT_LT(bearingGdop(rays, {0.0, 0.5}), bearingGdop(rays, {0.0, 3.0}));
}

TEST(BearingGdop, ParallelIsInfinite) {
  const std::vector<geom::Ray2> parallel{{{0.0, 0.0}, 1.0},
                                         {{1.0, 0.0}, 1.0}};
  EXPECT_TRUE(std::isinf(bearingGdop(parallel, {2.0, 2.0})));
}

TEST(FixConfidence, OrderedByQuality) {
  SpectrumQuality good;
  good.peakValue = 0.9;
  good.halfPowerWidthDeg = 10.0;
  good.peakRatio = 4.0;
  SpectrumQuality bad;
  bad.peakValue = 0.3;
  bad.halfPowerWidthDeg = 60.0;
  bad.peakRatio = 1.2;

  const std::vector<SpectrumQuality> goodPair{good, good};
  const std::vector<SpectrumQuality> mixed{good, bad};
  const double cGood = fixConfidence(goodPair, 2.0);
  const double cMixed = fixConfidence(mixed, 2.0);
  const double cBadGeometry = fixConfidence(goodPair, 40.0);
  EXPECT_GT(cGood, cMixed);
  EXPECT_GT(cGood, cBadGeometry);
  EXPECT_GE(cGood, 0.0);
  EXPECT_LE(cGood, 1.0);
}

TEST(FixConfidence, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fixConfidence({}, 1.0), 0.0);
  SpectrumQuality q;
  q.peakValue = 0.9;
  q.halfPowerWidthDeg = 10.0;
  q.peakRatio = 4.0;
  const std::vector<SpectrumQuality> one{q};
  EXPECT_DOUBLE_EQ(
      fixConfidence(one, std::numeric_limits<double>::infinity()), 0.0);
}

TEST(RigHealth, CleanTraceIsHealthy) {
  SyntheticConfig sc;
  sc.readerAzimuth = 1.3;
  sc.noiseStd = 0.05;
  const auto snaps = makeSnapshots(sc);
  const RigHealth h = assessRigHealth(snaps, defaultKinematics());
  EXPECT_EQ(h.snapshotCount, sc.count);
  EXPECT_NEAR(h.durationS, sc.durationS, 0.5);
  // 30 s at 0.5 rad/s is ~2.4 revolutions: the full circle is covered.
  EXPECT_GT(h.arcCoverage, 0.95);
  EXPECT_GT(h.spectrum.peakValue, 0.5);
  EXPECT_TRUE(isHealthy(h, RigHealthThresholds{}));
}

TEST(RigHealth, ContiguousDropoutLowersArcCoverage) {
  SyntheticConfig sc;
  sc.readerAzimuth = 1.3;
  sc.durationS = 12.6;  // almost exactly one revolution at 0.5 rad/s
  const auto full = makeSnapshots(sc);
  // Silence the middle 30% of the interrogation.
  std::vector<Snapshot> gappy;
  const double t0 = 0.35 * sc.durationS;
  const double t1 = 0.65 * sc.durationS;
  for (const Snapshot& s : full) {
    if (s.timeS < t0 || s.timeS >= t1) gappy.push_back(s);
  }
  const RigHealth h = assessRigHealth(gappy, defaultKinematics());
  // A 30% time gap on a one-revolution spin is a ~30% aperture hole.
  EXPECT_LT(h.arcCoverage, 0.80);
  EXPECT_GT(h.arcCoverage, 0.55);
  RigHealthThresholds strict;
  strict.minArcCoverage = 0.85;
  EXPECT_FALSE(isHealthy(h, strict));
  EXPECT_TRUE(isHealthy(h, RigHealthThresholds{}));  // default gate is 0.30
}

TEST(RigHealth, DegenerateInputsScoreZeroWithoutThrowing) {
  const RigHealth empty = assessRigHealth({}, defaultKinematics());
  EXPECT_EQ(empty.snapshotCount, 0u);
  EXPECT_EQ(empty.arcCoverage, 0.0);
  EXPECT_EQ(empty.spectrum.peakValue, 0.0);
  EXPECT_FALSE(isHealthy(empty, RigHealthThresholds{}));

  std::vector<Snapshot> one(1);
  one[0].lambdaM = 0.325;
  const RigHealth single = assessRigHealth(one, defaultKinematics());
  EXPECT_EQ(single.snapshotCount, 1u);
  EXPECT_EQ(single.durationS, 0.0);
  EXPECT_FALSE(isHealthy(single, RigHealthThresholds{}));
}

TEST(RigHealth, ThresholdsGateEachAxisIndependently) {
  SyntheticConfig sc;
  sc.readerAzimuth = 0.9;
  const auto snaps = makeSnapshots(sc);
  const RigHealth h = assessRigHealth(snaps, defaultKinematics());

  RigHealthThresholds t;
  EXPECT_TRUE(isHealthy(h, t));
  t.minSnapshots = h.snapshotCount + 1;
  EXPECT_FALSE(isHealthy(h, t));
  t = {};
  t.minArcCoverage = 1.1;  // impossible
  EXPECT_FALSE(isHealthy(h, t));
  t = {};
  t.minPeakValue = 1.1;  // impossible (profiles are normalised)
  EXPECT_FALSE(isHealthy(h, t));
}

TEST(FixConfidence, EndToEndSeparatesGoodAndBadGeometry) {
  // Same spectra, two candidate fixes: broadside (well-conditioned) vs far
  // down-range (dilution) -- the confidence must rank them correctly.
  const SpectrumQuality q = qualityOf(profileWith(0.1, 0.03));
  const std::vector<SpectrumQuality> spectra{q, q};
  const std::vector<geom::Ray2> rays1{
      {{-0.2, 0.0}, (geom::Vec2{0.0, 1.0}).angle()},
      {{0.2, 0.0}, (geom::Vec2{-0.2, 1.0} - geom::Vec2{0.2, 0.0}).angle()}};
  const double near = fixConfidence(spectra, bearingGdop(rays1, {0.0, 1.0}));
  const double far = fixConfidence(spectra, bearingGdop(rays1, {0.0, 3.5}));
  EXPECT_GT(near, far);
}

}  // namespace
}  // namespace tagspin::core
