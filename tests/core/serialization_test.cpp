#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "geom/angles.hpp"

namespace tagspin::core {
namespace {

DeploymentFile sampleDeployment() {
  DeploymentFile d;
  RigSpec rig1;
  rig1.center = {-0.2, 0.0, 0.095};
  rig1.kinematics = {0.10, 0.5, 0.3, geom::kPi / 2.0};
  RigSpec rig2;
  rig2.center = {0.2, 0.0, 0.095};
  rig2.kinematics = {0.12, 0.45, 0.7, geom::kPi / 2.0};
  d.rigs[rfid::Epc::forSimulatedTag(0)] = rig1;
  d.rigs[rfid::Epc::forSimulatedTag(1)] = rig2;

  RigSpec vertical;
  vertical.center = {0.0, 0.4, 0.095};
  vertical.kinematics = {0.10, 0.5, 0.0, geom::kPi / 2.0};
  d.verticalRigs[rfid::Epc::forSimulatedTag(2)] = vertical;

  dsp::FourierSeries s;
  s.a0 = 0.01;
  s.a = {0.1, 0.3, -0.02, 0.004};
  s.b = {0.05, 0.08, 0.01, -0.003};
  d.orientationModels[rfid::Epc::forSimulatedTag(0)] =
      OrientationModel::fromSeries(s, 0.12);
  return d;
}

TEST(Serialization, DeploymentRoundTripExact) {
  const DeploymentFile original = sampleDeployment();
  const DeploymentFile parsed =
      deploymentFromString(deploymentToString(original));

  ASSERT_EQ(parsed.rigs.size(), 2u);
  ASSERT_EQ(parsed.verticalRigs.size(), 1u);
  ASSERT_EQ(parsed.orientationModels.size(), 1u);

  const RigSpec& rig = parsed.rigs.at(rfid::Epc::forSimulatedTag(0));
  EXPECT_EQ(rig.center, (geom::Vec3{-0.2, 0.0, 0.095}));
  EXPECT_DOUBLE_EQ(rig.kinematics.radiusM, 0.10);
  EXPECT_DOUBLE_EQ(rig.kinematics.omegaRadPerS, 0.5);
  EXPECT_DOUBLE_EQ(rig.kinematics.initialAngle, 0.3);
  EXPECT_DOUBLE_EQ(rig.kinematics.tagPlaneOffset, geom::kPi / 2.0);

  const OrientationModel& model =
      parsed.orientationModels.at(rfid::Epc::forSimulatedTag(0));
  const OrientationModel& truth =
      original.orientationModels.at(rfid::Epc::forSimulatedTag(0));
  for (double rho = 0.0; rho < geom::kTwoPi; rho += 0.37) {
    EXPECT_DOUBLE_EQ(model.offsetAt(rho), truth.offsetAt(rho));
  }
  EXPECT_DOUBLE_EQ(model.fitResidual(), 0.12);
}

TEST(Serialization, EmptyDeployment) {
  const DeploymentFile parsed = deploymentFromString(
      deploymentToString(DeploymentFile{}));
  EXPECT_TRUE(parsed.rigs.empty());
  EXPECT_TRUE(parsed.orientationModels.empty());
}

TEST(Serialization, CommentsAndBlanksIgnored) {
  const std::string text = R"(
# a comment

[rig 000000000000000000000001]
  # indented comment
center = 1 2 3
radius_m = 0.1
omega_rad_per_s = 0.5
initial_angle = 0
tag_plane_offset = 1.5707963267948966
)";
  const DeploymentFile parsed = deploymentFromString(text);
  ASSERT_EQ(parsed.rigs.size(), 1u);
  EXPECT_EQ(parsed.rigs.begin()->second.center, (geom::Vec3{1, 2, 3}));
}

TEST(Serialization, MalformedInputsThrowWithLineNumbers) {
  // Key/value without a section.
  EXPECT_THROW(deploymentFromString("radius_m = 0.1\n"),
               std::invalid_argument);
  // Unknown section type.
  EXPECT_THROW(
      deploymentFromString("[widget 000000000000000000000001]\n"),
      std::invalid_argument);
  // Bad EPC.
  EXPECT_THROW(deploymentFromString("[rig nothex]\n"), std::invalid_argument);
  // Bad number.
  EXPECT_THROW(deploymentFromString(
                   "[rig 000000000000000000000001]\nradius_m = banana\n"),
               std::invalid_argument);
  // Vector with wrong arity.
  EXPECT_THROW(deploymentFromString(
                   "[rig 000000000000000000000001]\ncenter = 1 2\n"),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(deploymentFromString(
                   "[rig 000000000000000000000001]\ncolour = red\n"),
               std::invalid_argument);
  // Model coefficient before order.
  EXPECT_THROW(
      deploymentFromString(
          "[orientation_model 000000000000000000000001]\na1 = 0.5\n"),
      std::invalid_argument);
  // Coefficient index out of range.
  EXPECT_THROW(
      deploymentFromString("[orientation_model 000000000000000000000001]\n"
                           "order = 1\na5 = 0.5\n"),
      std::invalid_argument);
}

TEST(Serialization, NonPositiveRadiusRejectedWithLineNumber) {
  // No profile can be built for such a rig; the parser says where it is.
  for (const char* radius : {"0", "-0.1", "nan", "inf"}) {
    try {
      deploymentFromString(std::string("[rig 000000000000000000000001]\n"
                                       "center = 0 0 0\nradius_m = ") +
                           radius + "\n");
      FAIL() << "expected throw for radius_m = " << radius;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("radius_m"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialization, LineNumberInMessage) {
  try {
    deploymentFromString("# line 1\n# line 2\ngarbage here\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, StandaloneOrientationModel) {
  dsp::FourierSeries s;
  s.a0 = -0.02;
  s.a = {0.2, 0.35};
  s.b = {0.0, 0.11};
  const OrientationModel model = OrientationModel::fromSeries(s, 0.09);
  std::ostringstream out;
  writeOrientationModel(out, model);
  std::istringstream in(out.str());
  const OrientationModel parsed = readOrientationModel(in);
  for (double rho = 0.0; rho < geom::kTwoPi; rho += 0.5) {
    EXPECT_DOUBLE_EQ(parsed.offsetAt(rho), model.offsetAt(rho));
  }
  EXPECT_DOUBLE_EQ(parsed.fitResidual(), 0.09);
  EXPECT_FALSE(parsed.isIdentity());
}

CalibrationCheckpoint sampleCheckpoint() {
  CalibrationCheckpoint ckpt;
  ckpt.sequence = 41;
  ckpt.wallTimeS = 88.125;
  ckpt.lastReportTimestampS = 87.062500000000014;  // full double precision

  TagCalibrationProgress progress;
  for (int i = 0; i < 4; ++i) {
    Snapshot s;
    s.timeS = 0.1 * i + 1e-16;
    s.phaseRad = 2.0 / 3.0 * i;
    s.lambdaM = 0.32786885245901637;
    s.channel = 10 + i;
    s.rssiDbm = -61.5 - 0.125 * i;
    progress.snapshots.push_back(s);
  }
  progress.angleSpectrum = {0.25, 0.5123456789012345, 0.75};
  dsp::FourierSeries series;
  series.a0 = 0.01;
  series.a = {0.2, -0.07};
  series.b = {0.05, 0.02};
  progress.hasOrientationModel = true;
  progress.orientationModel = OrientationModel::fromSeries(series, 0.11);
  ckpt.tags[rfid::Epc::forSimulatedTag(3)] = progress;

  TagCalibrationProgress bare;
  Snapshot s;
  s.timeS = 5.5;
  s.phaseRad = 1.25;
  s.lambdaM = 0.33;
  s.channel = 0;
  s.rssiDbm = -70.25;
  bare.snapshots.push_back(s);
  ckpt.tags[rfid::Epc::forSimulatedTag(4)] = bare;
  return ckpt;
}

TEST(Serialization, CheckpointRoundTripExact) {
  const CalibrationCheckpoint ckpt = sampleCheckpoint();
  const CalibrationCheckpoint back =
      checkpointFromString(checkpointToString(ckpt));

  EXPECT_EQ(back.sequence, ckpt.sequence);
  EXPECT_EQ(back.wallTimeS, ckpt.wallTimeS);
  EXPECT_EQ(back.lastReportTimestampS, ckpt.lastReportTimestampS);
  ASSERT_EQ(back.tags.size(), 2u);

  const TagCalibrationProgress& p = back.tags.at(rfid::Epc::forSimulatedTag(3));
  const TagCalibrationProgress& orig =
      ckpt.tags.at(rfid::Epc::forSimulatedTag(3));
  ASSERT_EQ(p.snapshots.size(), orig.snapshots.size());
  for (size_t i = 0; i < p.snapshots.size(); ++i) {
    // Bit-exact: the 17-digit dialect means the restored runtime rebuilds
    // the very same dedup keys and fit inputs.
    EXPECT_EQ(p.snapshots[i].timeS, orig.snapshots[i].timeS) << i;
    EXPECT_EQ(p.snapshots[i].phaseRad, orig.snapshots[i].phaseRad) << i;
    EXPECT_EQ(p.snapshots[i].lambdaM, orig.snapshots[i].lambdaM) << i;
    EXPECT_EQ(p.snapshots[i].channel, orig.snapshots[i].channel) << i;
    EXPECT_EQ(p.snapshots[i].rssiDbm, orig.snapshots[i].rssiDbm) << i;
  }
  ASSERT_EQ(p.angleSpectrum.size(), 3u);
  EXPECT_EQ(p.angleSpectrum[1], 0.5123456789012345);
  ASSERT_TRUE(p.hasOrientationModel);
  for (double rho = 0.0; rho < geom::kTwoPi; rho += 0.7) {
    EXPECT_DOUBLE_EQ(p.orientationModel.offsetAt(rho),
                     orig.orientationModel.offsetAt(rho));
  }

  const TagCalibrationProgress& bare =
      back.tags.at(rfid::Epc::forSimulatedTag(4));
  EXPECT_FALSE(bare.hasOrientationModel);
  EXPECT_TRUE(bare.angleSpectrum.empty());
  ASSERT_EQ(bare.snapshots.size(), 1u);
}

TEST(Serialization, CheckpointLastFixRoundTripExact) {
  CalibrationCheckpoint ckpt = sampleCheckpoint();
  ckpt.lastFix.valid = true;
  ckpt.lastFix.x = 0.80000000000000004;
  ckpt.lastFix.y = 2.0 / 3.0;
  ckpt.lastFix.confidence = 0.5123456789012345;
  ckpt.lastFix.inlierFraction = 0.75;
  ckpt.lastFix.quarantinedSpins = 3;
  ckpt.lastFix.hasEllipse = true;
  ckpt.lastFix.ellipseSemiMajorM = 0.041;
  ckpt.lastFix.ellipseSemiMinorM = 0.017;
  ckpt.lastFix.ellipseOrientationRad = -1.2345678901234567;
  ckpt.lastFix.ellipseConfidence = 0.90;

  const std::string text = checkpointToString(ckpt);
  EXPECT_NE(text.find("[last_fix]"), std::string::npos);

  const FixRecord& back = checkpointFromString(text).lastFix;
  ASSERT_TRUE(back.valid);
  EXPECT_EQ(back.x, ckpt.lastFix.x);
  EXPECT_EQ(back.y, ckpt.lastFix.y);
  EXPECT_EQ(back.confidence, ckpt.lastFix.confidence);
  EXPECT_EQ(back.inlierFraction, ckpt.lastFix.inlierFraction);
  EXPECT_EQ(back.quarantinedSpins, 3u);
  ASSERT_TRUE(back.hasEllipse);
  EXPECT_EQ(back.ellipseSemiMajorM, ckpt.lastFix.ellipseSemiMajorM);
  EXPECT_EQ(back.ellipseSemiMinorM, ckpt.lastFix.ellipseSemiMinorM);
  EXPECT_EQ(back.ellipseOrientationRad, ckpt.lastFix.ellipseOrientationRad);
  EXPECT_EQ(back.ellipseConfidence, ckpt.lastFix.ellipseConfidence);
}

TEST(Serialization, CheckpointLastFixOmittedWhenInvalid) {
  // A checkpoint that never produced a fix writes no [last_fix] section,
  // and parsing such a file leaves the record invalid -- so a restored
  // runtime cannot mistake "never located" for "located at the origin".
  const CalibrationCheckpoint ckpt = sampleCheckpoint();
  const std::string text = checkpointToString(ckpt);
  EXPECT_EQ(text.find("[last_fix]"), std::string::npos);
  EXPECT_FALSE(checkpointFromString(text).lastFix.valid);
}

TEST(Serialization, CheckpointLastFixWithoutEllipseRoundTrips) {
  CalibrationCheckpoint ckpt = sampleCheckpoint();
  ckpt.lastFix.valid = true;
  ckpt.lastFix.x = -0.25;
  ckpt.lastFix.y = 1.5;
  ckpt.lastFix.confidence = 0.4;
  const std::string text = checkpointToString(ckpt);
  EXPECT_EQ(text.find("ellipse"), std::string::npos);
  const FixRecord& back = checkpointFromString(text).lastFix;
  ASSERT_TRUE(back.valid);
  EXPECT_FALSE(back.hasEllipse);
  EXPECT_EQ(back.x, -0.25);
  EXPECT_EQ(back.quarantinedSpins, 0u);
}

TEST(Serialization, CheckpointTrackContinuationRoundTripsExact) {
  CalibrationCheckpoint ckpt = sampleCheckpoint();
  ckpt.lastFix.valid = true;
  ckpt.lastFix.x = 0.5;
  ckpt.lastFix.y = 1.25;
  ckpt.lastFix.hasVelocity = true;
  ckpt.lastFix.velocityX = 0.12345678901234567;
  ckpt.lastFix.velocityY = -0.037;
  ckpt.lastFix.hasTrack = true;
  ckpt.lastFix.trackTimeS = 41.062500000000007;
  ckpt.lastFix.trackState = 2;  // confirmed
  ckpt.lastFix.trackModel = 1;  // coordinated turn

  const std::string text = checkpointToString(ckpt);
  EXPECT_NE(text.find("velocity = "), std::string::npos);
  EXPECT_NE(text.find("track = "), std::string::npos);

  const FixRecord& back = checkpointFromString(text).lastFix;
  ASSERT_TRUE(back.valid);
  ASSERT_TRUE(back.hasVelocity);
  EXPECT_EQ(back.velocityX, ckpt.lastFix.velocityX);
  EXPECT_EQ(back.velocityY, ckpt.lastFix.velocityY);
  ASSERT_TRUE(back.hasTrack);
  EXPECT_EQ(back.trackTimeS, ckpt.lastFix.trackTimeS);
  EXPECT_EQ(back.trackState, 2u);
  EXPECT_EQ(back.trackModel, 1u);
}

TEST(Serialization, CheckpointWithoutTrackKeysLoadsWithDefaults) {
  // A pre-tracking checkpoint (no velocity/track keys in [last_fix]) must
  // load cleanly with the continuation fields defaulted -- the restarted
  // tracker then simply re-initializes from the next fix.
  CalibrationCheckpoint ckpt = sampleCheckpoint();
  ckpt.lastFix.valid = true;
  ckpt.lastFix.x = -0.125;
  ckpt.lastFix.y = 2.5;
  ckpt.lastFix.confidence = 0.75;
  const std::string text = checkpointToString(ckpt);
  // The writer omits the keys entirely -- the emitted text IS the old
  // format, byte for byte.
  EXPECT_EQ(text.find("velocity"), std::string::npos);
  EXPECT_EQ(text.find("track"), std::string::npos);

  const FixRecord& back = checkpointFromString(text).lastFix;
  ASSERT_TRUE(back.valid);
  EXPECT_EQ(back.x, -0.125);
  EXPECT_FALSE(back.hasVelocity);
  EXPECT_EQ(back.velocityX, 0.0);
  EXPECT_FALSE(back.hasTrack);
  EXPECT_EQ(back.trackState, 0u);
}

TEST(Serialization, CheckpointSnapshotCountMismatchIsRejected) {
  // Text-level truncation tell: dropping a snapshot line must not parse as
  // a smaller-but-valid checkpoint.
  std::string text = checkpointToString(sampleCheckpoint());
  const size_t at = text.rfind("snapshot = ");
  ASSERT_NE(at, std::string::npos);
  text.erase(at, text.find('\n', at) - at + 1);
  try {
    checkpointFromString(text);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, CheckpointWithoutHeaderSectionIsRejected) {
  EXPECT_THROW(checkpointFromString(""), std::invalid_argument);
  EXPECT_THROW(checkpointFromString("# only a comment\n"),
               std::invalid_argument);
  // A tag section alone (e.g. a file that lost its first lines) fails too.
  std::string text = checkpointToString(sampleCheckpoint());
  text = text.substr(text.find("[tag_progress"));
  EXPECT_THROW(checkpointFromString(text), std::invalid_argument);
}

TEST(Serialization, CheckpointUnknownKeyNamesTheLine) {
  std::string text = checkpointToString(sampleCheckpoint());
  const size_t at = text.find("wall_time_s");
  text.replace(at, std::string("wall_time_s").size(), "wibble_time");
  try {
    checkpointFromString(text);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, FullPrecisionPreserved) {
  // 17 significant digits round-trip doubles exactly.
  DeploymentFile d;
  RigSpec rig;
  rig.center = {0.1 + 1e-16, 2.0 / 3.0, -0.30000000000000004};
  rig.kinematics = {0.1, 0.5123456789012345, 0.0, 1.5707963267948966};
  d.rigs[rfid::Epc::forSimulatedTag(9)] = rig;
  const DeploymentFile parsed = deploymentFromString(deploymentToString(d));
  const RigSpec& back = parsed.rigs.begin()->second;
  EXPECT_EQ(back.center, rig.center);
  EXPECT_DOUBLE_EQ(back.kinematics.omegaRadPerS,
                   rig.kinematics.omegaRadPerS);
}

}  // namespace
}  // namespace tagspin::core
