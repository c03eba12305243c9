#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "geom/angles.hpp"
#include "obs/journal.hpp"
#include "sim/io_sim.hpp"

namespace tagspin::runtime {
namespace {

core::CalibrationCheckpoint sampleCheckpoint() {
  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = 17;
  ckpt.wallTimeS = 123.5;
  ckpt.lastReportTimestampS = 119.25;

  core::TagCalibrationProgress progress;
  for (int i = 0; i < 5; ++i) {
    core::Snapshot s;
    s.timeS = 0.5 * i;
    s.phaseRad = 0.1 * i;
    s.lambdaM = 0.328;
    s.channel = i % 3;
    s.rssiDbm = -60.0 - i;
    progress.snapshots.push_back(s);
  }
  progress.angleSpectrum = {0.1, 0.9, 0.4, 0.2};

  dsp::FourierSeries series;
  series.a0 = 0.02;
  series.a = {0.1, -0.05};
  series.b = {0.03, 0.01};
  progress.hasOrientationModel = true;
  progress.orientationModel = core::OrientationModel::fromSeries(series, 0.2);

  ckpt.tags[rfid::Epc::forSimulatedTag(0)] = progress;

  core::TagCalibrationProgress bare;
  core::Snapshot s;
  s.timeS = 1.0;
  s.phaseRad = 2.0;
  s.lambdaM = 0.33;
  s.channel = 7;
  s.rssiDbm = -55.5;
  bare.snapshots.push_back(s);
  ckpt.tags[rfid::Epc::forSimulatedTag(1)] = bare;
  return ckpt;
}

std::string tempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs the cases of this binary as
    // separate parallel processes, and a shared filename makes them
    // clobber each other's checkpoints mid-save.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = tempPath(
        (std::string("tagspin_checkpoint_") + info->name() + ".ckpt")
            .c_str());
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  std::string path_;
};

TEST_F(CheckpointStoreTest, MissingFileIsDistinctFromCorrupt) {
  CheckpointStore store(path_);
  const auto result = store.load();
  ASSERT_FALSE(result.hasValue());
  EXPECT_EQ(result.code(), core::ErrorCode::kCheckpointMissing);
}

TEST_F(CheckpointStoreTest, SaveLoadRoundTrip) {
  CheckpointStore store(path_);
  const core::CalibrationCheckpoint original = sampleCheckpoint();
  store.save(original);

  const auto loaded = store.load();
  ASSERT_TRUE(loaded.hasValue());
  EXPECT_EQ(loaded->sequence, 17u);
  EXPECT_DOUBLE_EQ(loaded->wallTimeS, 123.5);
  EXPECT_DOUBLE_EQ(loaded->lastReportTimestampS, 119.25);
  ASSERT_EQ(loaded->tags.size(), 2u);

  const auto& progress = loaded->tags.at(rfid::Epc::forSimulatedTag(0));
  ASSERT_EQ(progress.snapshots.size(), 5u);
  EXPECT_DOUBLE_EQ(progress.snapshots[2].timeS, 1.0);
  EXPECT_DOUBLE_EQ(progress.snapshots[2].phaseRad, 0.2);
  EXPECT_EQ(progress.snapshots[2].channel, 2);
  ASSERT_EQ(progress.angleSpectrum.size(), 4u);
  EXPECT_DOUBLE_EQ(progress.angleSpectrum[1], 0.9);
  EXPECT_TRUE(progress.hasOrientationModel);

  const auto& bare = loaded->tags.at(rfid::Epc::forSimulatedTag(1));
  EXPECT_FALSE(bare.hasOrientationModel);
  ASSERT_EQ(bare.snapshots.size(), 1u);
  EXPECT_DOUBLE_EQ(bare.snapshots[0].rssiDbm, -55.5);
}

TEST_F(CheckpointStoreTest, SaveLeavesNoTmpBehind) {
  CheckpointStore store(path_);
  store.save(sampleCheckpoint());
  EXPECT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointStoreTest, OverwriteKeepsLatest) {
  CheckpointStore store(path_);
  core::CalibrationCheckpoint ckpt = sampleCheckpoint();
  store.save(ckpt);
  ckpt.sequence = 99;
  store.save(ckpt);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.hasValue());
  EXPECT_EQ(loaded->sequence, 99u);
}

TEST_F(CheckpointStoreTest, TruncationAtEveryPointIsRejectedNeverGarbage) {
  CheckpointStore store(path_);
  store.save(sampleCheckpoint());
  std::string full;
  {
    std::ifstream in(path_, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 100u);

  // A kill -9 without the atomic rename would leave a prefix; every prefix
  // length must be detected (missing header, short payload, CRC mismatch)
  // -- never parsed as a valid checkpoint.
  for (size_t cut : {size_t(0), size_t(1), size_t(10), full.size() / 4,
                     full.size() / 2, full.size() - 1}) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const auto result = store.load();
    ASSERT_FALSE(result.hasValue()) << "cut at " << cut;
    EXPECT_EQ(result.code(), core::ErrorCode::kCheckpointCorrupt)
        << "cut at " << cut;
  }
}

TEST_F(CheckpointStoreTest, SingleFlippedByteFailsTheCrc) {
  CheckpointStore store(path_);
  store.save(sampleCheckpoint());
  std::string full;
  {
    std::ifstream in(path_, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  // Corrupt one payload byte (past the header line).
  const size_t headerEnd = full.find('\n') + 1;
  std::string corrupted = full;
  corrupted[headerEnd + corrupted.size() / 3] ^= 0x01;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  const auto result = store.load();
  ASSERT_FALSE(result.hasValue());
  EXPECT_EQ(result.code(), core::ErrorCode::kCheckpointCorrupt);
}

TEST_F(CheckpointStoreTest, ValidFrameWithMalformedPayloadIsCorrupt) {
  // Correct length and CRC, but the payload is not a checkpoint: the text
  // parser is the last integrity layer.
  const std::string framed = CheckpointStore::frame("this is not a checkpoint");
  {
    std::ofstream out(path_, std::ios::binary);
    out << framed;
  }
  CheckpointStore store(path_);
  const auto result = store.load();
  ASSERT_FALSE(result.hasValue());
  EXPECT_EQ(result.code(), core::ErrorCode::kCheckpointCorrupt);
}

TEST_F(CheckpointStoreTest, DiscardedCheckpointIsJournaled) {
  CheckpointStore store(path_);
  obs::EventJournal journal;
  store.setJournal(&journal);

  // A clean round trip records nothing: the journal is for incidents.
  store.save(sampleCheckpoint());
  ASSERT_TRUE(store.load().hasValue());
  EXPECT_EQ(journal.recorded(), 0u);

  // CRC-failed payload: the discard is journaled with path + reason.
  std::string full;
  {
    std::ifstream in(path_, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  full[full.size() - 2] ^= 0x01;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << full;
  }
  ASSERT_FALSE(store.load().hasValue());
  {
    const auto events = journal.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].severity, obs::Severity::kWarn);
    EXPECT_EQ(events[0].what, "checkpoint discarded");
    ASSERT_GE(events[0].fields.size(), 2u);
    EXPECT_EQ(events[0].fields[0].first, "path");
    EXPECT_EQ(events[0].fields[0].second, path_);
    EXPECT_EQ(events[0].fields[1].first, "reason");
    EXPECT_FALSE(events[0].fields[1].second.empty());
  }

  // Well-framed but malformed payload: also journaled (second layer).
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << CheckpointStore::frame("this is not a checkpoint");
  }
  ASSERT_FALSE(store.load().hasValue());
  EXPECT_EQ(journal.recorded(), 2u);

  // A *missing* checkpoint is a normal first boot, not an incident.
  std::remove(path_.c_str());
  ASSERT_FALSE(store.load().hasValue());
  EXPECT_EQ(journal.recorded(), 2u);
}

TEST_F(CheckpointStoreTest, SaveIntoMissingDirectoryThrowsAndPreservesOld) {
  CheckpointStore good(path_);
  good.save(sampleCheckpoint());

  CheckpointStore bad("/nonexistent_dir_tagspin/ckpt");
  EXPECT_THROW(bad.save(sampleCheckpoint()), std::runtime_error);

  // The unrelated good file is of course still loadable.
  EXPECT_TRUE(good.load().hasValue());
}

TEST(CheckpointStoreSim, EnospcMidSaveKeepsPreviousCheckpointAndNoTmpLitter) {
  sim::SimIoEnv env;
  CheckpointStore store("calib.ckpt", &env);
  store.save(sampleCheckpoint());  // sequence 17, fully durable

  core::CalibrationCheckpoint next = sampleCheckpoint();
  next.sequence = 99;

  // Run the disk full at the tmp write, then at the tmp fsync.  Each failed
  // save must throw, leave the previous checkpoint loadable, and leave no
  // .tmp behind for the next attempt to trip over.
  for (const uint64_t offset : {uint64_t(1), uint64_t(2)}) {
    const uint64_t base = env.opCount();
    env.setFaults({{base + offset, sim::FaultKind::kEnospc}});
    EXPECT_THROW(store.save(next), std::runtime_error);
    const auto loaded = store.load();
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded->sequence, 17u);
    EXPECT_FALSE(env.exists("calib.ckpt.tmp"));
  }

  // Space freed: the retry goes through cleanly.
  env.setFaults({});
  store.save(next);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.hasValue());
  EXPECT_EQ(loaded->sequence, 99u);
  EXPECT_FALSE(env.exists("calib.ckpt.tmp"));
}

TEST(CheckpointStoreSim, EintrStormDuringSaveIsAbsorbed) {
  sim::SimIoEnv env;
  CheckpointStore store("calib.ckpt", &env);
  // One EINTR each on open, write, fsync and dirsync (retries shift every
  // later op index by one).
  env.setFaults({{0, sim::FaultKind::kEintr},
                 {2, sim::FaultKind::kEintr},
                 {4, sim::FaultKind::kEintr},
                 {8, sim::FaultKind::kEintr}});
  store.save(sampleCheckpoint());
  EXPECT_EQ(env.faultsInjected(), 4u);
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.hasValue());
  EXPECT_EQ(loaded->sequence, 17u);
}

TEST(CheckpointStoreSim, PowerCutAtEveryBoundaryLeavesOldOrNewCheckpoint) {
  // Boundaries of the second save, measured on a probe run.
  uint64_t firstOps = 0;
  uint64_t totalOps = 0;
  core::CalibrationCheckpoint next = sampleCheckpoint();
  next.sequence = 99;
  {
    sim::SimIoEnv probe;
    CheckpointStore store("calib.ckpt", &probe);
    store.save(sampleCheckpoint());
    firstOps = probe.opCount();
    store.save(next);
    totalOps = probe.opCount();
  }
  ASSERT_GT(totalOps, firstOps);

  for (uint64_t k = firstOps; k < totalOps; ++k) {
    sim::SimIoEnv env;
    CheckpointStore store("calib.ckpt", &env);
    store.save(sampleCheckpoint());
    env.setFaults({{k, sim::FaultKind::kCrash}});
    try {
      store.save(next);
      FAIL() << "power cut at op " << k << " did not surface";
    } catch (const sim::SimCrash&) {
    }
    for (const sim::CrashPersist::Mode mode :
         {sim::CrashPersist::Mode::kNone, sim::CrashPersist::Mode::kAll,
          sim::CrashPersist::Mode::kMetaOnly, sim::CrashPersist::Mode::kPrefix,
          sim::CrashPersist::Mode::kSubset}) {
      sim::SimIoEnv recovery(env.crashImage({mode, 3 * k + 1}));
      CheckpointStore after("calib.ckpt", &recovery);
      const auto loaded = after.load();
      ASSERT_TRUE(loaded.hasValue())
          << "cut at op " << k << ", mode " << sim::persistModeName(mode);
      EXPECT_TRUE(loaded->sequence == 17u || loaded->sequence == 99u)
          << "cut at op " << k << ", mode " << sim::persistModeName(mode)
          << ": sequence " << loaded->sequence;
    }
  }
}

TEST(CheckpointFrame, RoundTrip) {
  const std::string payload = "hello checkpoint\nwith lines\n";
  const auto back = CheckpointStore::unframe(CheckpointStore::frame(payload));
  ASSERT_TRUE(back.hasValue());
  EXPECT_EQ(*back, payload);
}

TEST(CheckpointFrame, RejectsWrongMagic) {
  std::string framed = CheckpointStore::frame("payload");
  framed[0] = 'X';
  EXPECT_FALSE(CheckpointStore::unframe(framed).hasValue());
}

TEST(Crc32, KnownVectors) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0x00000000u);
  EXPECT_NE(crc32(std::string("a")), crc32(std::string("b")));
}

}  // namespace
}  // namespace tagspin::runtime
