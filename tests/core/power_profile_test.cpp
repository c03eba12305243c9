#include "core/power_profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/spectrum.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

ProfileConfig configFor(ProfileFormula f) {
  ProfileConfig pc;
  pc.formula = f;
  return pc;
}

// The central property: every formula peaks at the true reader azimuth in
// the noiseless case, across directions, radii and formulas.
struct PeakCase {
  double azimuthDeg;
  double radius;
  ProfileFormula formula;
};

/// "Q_az100_r0p10": the case's test name, and what gtest prints for it.
/// Left to itself gtest prints the struct's bytes, uninitialized padding
/// included, into the names ctest registers, so they changed from build to
/// build.
std::string caseName(const PeakCase& c) {
  const char formula = c.formula == ProfileFormula::kRelativeQ   ? 'Q'
                       : c.formula == ProfileFormula::kEnhancedR ? 'R'
                                                                 : 'P';
  char name[32];
  std::snprintf(name, sizeof(name), "%c_az%d_r%dp%02d", formula,
                static_cast<int>(c.azimuthDeg), static_cast<int>(c.radius),
                static_cast<int>(std::lround(c.radius * 100.0)) % 100);
  return name;
}

void PrintTo(const PeakCase& c, std::ostream* os) { *os << caseName(c); }

class PeakSweep : public ::testing::TestWithParam<PeakCase> {};

TEST_P(PeakSweep, NoiselessPeakAtTruth) {
  const PeakCase c = GetParam();
  RigKinematics kin = defaultKinematics();
  kin.radiusM = c.radius;
  SyntheticConfig sc;
  sc.readerAzimuth = geom::degToRad(c.azimuthDeg);
  const auto snaps = makeSnapshots(sc, kin);
  const PowerProfile profile(snaps, kin, configFor(c.formula));
  const AzimuthEstimate est = estimateAzimuth(profile, {});
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth,
                                                  sc.readerAzimuth)),
            0.2)
      << "azimuth " << c.azimuthDeg << " radius " << c.radius;
  EXPECT_NEAR(est.value, 1.0, 1e-6);  // perfectly coherent
}

INSTANTIATE_TEST_SUITE_P(
    DirectionsRadiiFormulas, PeakSweep,
    ::testing::Values(
        PeakCase{0.0, 0.10, ProfileFormula::kRelativeQ},
        PeakCase{45.0, 0.10, ProfileFormula::kRelativeQ},
        PeakCase{100.0, 0.10, ProfileFormula::kRelativeQ},
        PeakCase{255.0, 0.10, ProfileFormula::kRelativeQ},
        PeakCase{359.0, 0.10, ProfileFormula::kRelativeQ},
        PeakCase{100.0, 0.10, ProfileFormula::kEnhancedR},
        PeakCase{255.0, 0.10, ProfileFormula::kEnhancedR},
        PeakCase{100.0, 0.10, ProfileFormula::kClassicalP},
        PeakCase{100.0, 0.05, ProfileFormula::kEnhancedR},
        PeakCase{100.0, 0.16, ProfileFormula::kEnhancedR},
        PeakCase{200.0, 0.16, ProfileFormula::kRelativeQ}),
    [](const ::testing::TestParamInfo<PeakCase>& info) {
      return caseName(info.param);
    });

TEST(PowerProfile, ValuesBoundedByOne) {
  SyntheticConfig sc;
  sc.noiseStd = 0.1;
  const auto snaps = makeSnapshots(sc);
  for (const auto f : {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
                       ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, defaultKinematics(), configFor(f));
    for (double phi = 0.0; phi < geom::kTwoPi; phi += 0.21) {
      const double v = profile.evaluate(phi);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

TEST(PowerProfile, RSharperThanQ) {
  // Fig. 6's claim, as a testable property: R falls off faster around the
  // peak than Q.
  SyntheticConfig sc;
  sc.readerAzimuth = 2.0;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile q(snaps, defaultKinematics(),
                       configFor(ProfileFormula::kRelativeQ));
  const PowerProfile r(snaps, defaultKinematics(),
                       configFor(ProfileFormula::kEnhancedR));
  const double off = geom::degToRad(3.0);
  EXPECT_LT(r.evaluate(2.0 + off) / r.evaluate(2.0),
            q.evaluate(2.0 + off) / q.evaluate(2.0) - 0.01);
}

TEST(PowerProfile, QInvariantToReferenceCorruption) {
  // Corrupting the reference snapshot's phase only rotates Q's sum.
  SyntheticConfig sc;
  sc.readerAzimuth = 1.3;
  auto snaps = makeSnapshots(sc);
  const PowerProfile clean(snaps, defaultKinematics(),
                           configFor(ProfileFormula::kRelativeQ));
  auto corrupted = snaps;
  corrupted[0].phaseRad = geom::wrapTwoPi(corrupted[0].phaseRad + 2.0);
  const PowerProfile dirty(corrupted, defaultKinematics(),
                           configFor(ProfileFormula::kRelativeQ));
  for (double phi = 0.0; phi < geom::kTwoPi; phi += 0.5) {
    EXPECT_NEAR(clean.evaluate(phi), dirty.evaluate(phi), 2.0 / 800.0 + 1e-6);
  }
}

TEST(PowerProfile, RRobustToReferenceCorruption) {
  // The self-centred weights keep R's peak at the truth even when the
  // reference read is an interference outlier (see DESIGN.md).
  SyntheticConfig sc;
  sc.readerAzimuth = 1.3;
  sc.noiseStd = 0.1;
  auto snaps = makeSnapshots(sc);
  snaps[0].phaseRad = geom::wrapTwoPi(snaps[0].phaseRad + 2.5);
  const PowerProfile profile(snaps, defaultKinematics(),
                             configFor(ProfileFormula::kEnhancedR));
  const AzimuthEstimate est = estimateAzimuth(profile, {});
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth, 1.3)), 1.0);
}

TEST(PowerProfile, ROutperformsQUnderOutliers) {
  // The paper's robustness claim, measured: average azimuth error over
  // several seeds with 10% interference outliers.
  double qErr = 0.0, rErr = 0.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticConfig sc;
    sc.readerAzimuth = 0.6 + 0.8 * static_cast<double>(seed);
    sc.noiseStd = 0.1;
    sc.outlierProb = 0.10;
    sc.seed = seed;
    const auto snaps = makeSnapshots(sc);
    const PowerProfile q(snaps, defaultKinematics(),
                         configFor(ProfileFormula::kRelativeQ));
    const PowerProfile r(snaps, defaultKinematics(),
                         configFor(ProfileFormula::kEnhancedR));
    qErr += geom::circularDistance(estimateAzimuth(q, {}).azimuth,
                                   geom::wrapTwoPi(sc.readerAzimuth));
    rErr += geom::circularDistance(estimateAzimuth(r, {}).azimuth,
                                   geom::wrapTwoPi(sc.readerAzimuth));
  }
  EXPECT_LT(rErr, qErr);
}

TEST(PowerProfile, ThreeDPeakAtTruth) {
  SyntheticConfig sc;
  sc.readerAzimuth = 2.2;
  sc.readerPolar = geom::degToRad(35.0);
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(),
                             configFor(ProfileFormula::kEnhancedR));
  const SpatialEstimate est = estimateSpatial(profile, {});
  EXPECT_LT(geom::radToDeg(geom::circularDistance(est.azimuth, 2.2)), 0.5);
  EXPECT_NEAR(geom::radToDeg(est.polar), 35.0, 1.5);
}

TEST(PowerProfile, ThreeDMirrorSymmetryExact) {
  SyntheticConfig sc;
  sc.readerPolar = geom::degToRad(25.0);
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  for (double gamma = 0.0; gamma <= 1.5; gamma += 0.3) {
    EXPECT_DOUBLE_EQ(profile.evaluate(1.0, gamma),
                     profile.evaluate(1.0, -gamma));
  }
}

TEST(PowerProfile, ChannelGroupingHandlesHopping) {
  // Two channels whose relative phases carry different D/lambda constants:
  // grouped evaluation stays coherent, naive single-group does not.
  SyntheticConfig scA;
  scA.readerAzimuth = 1.9;
  scA.lambdaM = 0.3243;
  scA.count = 400;
  scA.seed = 3;
  SyntheticConfig scB = scA;
  scB.lambdaM = 0.3256;
  scB.seed = 4;
  auto snapsA = makeSnapshots(scA);
  auto snapsB = makeSnapshots(scB);
  for (auto& s : snapsB) s.channel = 9;
  std::vector<Snapshot> all(snapsA);
  all.insert(all.end(), snapsB.begin(), snapsB.end());
  std::sort(all.begin(), all.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.timeS < b.timeS;
            });

  ProfileConfig grouped = configFor(ProfileFormula::kRelativeQ);
  grouped.channelCoherent = true;
  ProfileConfig naive = grouped;
  naive.channelCoherent = false;
  const PowerProfile pg(all, defaultKinematics(), grouped);
  const PowerProfile pn(all, defaultKinematics(), naive);
  EXPECT_NEAR(pg.evaluate(1.9), 1.0, 0.01);
  EXPECT_LT(pn.evaluate(1.9), pg.evaluate(1.9));
  const AzimuthEstimate est = estimateAzimuth(pg, {});
  EXPECT_LT(geom::circularDistance(est.azimuth, 1.9), 0.01);
}

TEST(PowerProfile, EvaluateDirectionGeneralizesGamma) {
  SyntheticConfig sc;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  EXPECT_DOUBLE_EQ(profile.evaluate(0.7, 0.5),
                   profile.evaluateDirection(0.7, std::cos(0.5)));
}

TEST(PowerProfile, Validation) {
  SyntheticConfig sc;
  sc.count = 1;
  const auto one = makeSnapshots(sc);
  EXPECT_THROW(PowerProfile(one, defaultKinematics(), {}),
               std::invalid_argument);

  sc.count = 10;
  auto snaps = makeSnapshots(sc);
  RigKinematics zeroRadius = defaultKinematics();
  zeroRadius.radiusM = 0.0;
  EXPECT_THROW(PowerProfile(snaps, zeroRadius, {}), std::invalid_argument);

  ProfileConfig badSigma;
  badSigma.phaseNoiseStd = 0.0;
  EXPECT_THROW(PowerProfile(snaps, defaultKinematics(), badSigma),
               std::invalid_argument);

  snaps[0].lambdaM = 0.0;
  EXPECT_THROW(PowerProfile(snaps, defaultKinematics(), {}),
               std::invalid_argument);
}

TEST(PowerProfile, RejectsNonFiniteInput) {
  // A NaN or infinite value would turn its channel group's sum -- the whole
  // profile -- into NaN, or enter as a k = 0 entry (lambda = inf).
  SyntheticConfig sc;
  sc.count = 10;
  const auto snaps = makeSnapshots(sc);
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const double lambda : {nan, inf, -inf}) {
    auto bad = snaps;
    bad[3].lambdaM = lambda;
    EXPECT_THROW(PowerProfile(bad, defaultKinematics(), {}),
                 std::invalid_argument)
        << "lambda " << lambda;
  }
  for (const double value : {nan, inf}) {
    auto badTime = snaps;
    badTime[3].timeS = value;
    EXPECT_THROW(PowerProfile(badTime, defaultKinematics(), {}),
                 std::invalid_argument)
        << "time " << value;
    auto badPhase = snaps;
    badPhase[0].phaseRad = value;
    EXPECT_THROW(PowerProfile(badPhase, defaultKinematics(), {}),
                 std::invalid_argument)
        << "phase " << value;
    RigKinematics badRadius = defaultKinematics();
    badRadius.radiusM = value;
    EXPECT_THROW(PowerProfile(snaps, badRadius, {}), std::invalid_argument)
        << "radius " << value;
    ProfileConfig badSigma;
    badSigma.phaseNoiseStd = value;
    EXPECT_THROW(PowerProfile(snaps, defaultKinematics(), badSigma),
                 std::invalid_argument)
        << "phaseNoiseStd " << value;
  }
}

TEST(PowerProfile, SampleAzimuthMatchesEvaluate) {
  SyntheticConfig sc;
  const auto snaps = makeSnapshots(sc);
  const PowerProfile profile(snaps, defaultKinematics(), {});
  const auto samples = profile.sampleAzimuth(36);
  ASSERT_EQ(samples.size(), 36u);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i], profile.evaluate(dsp::circularGridAngle(i, 36)));
  }
}

}  // namespace
}  // namespace tagspin::core
