#include "sim/io_sim.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>

#include "core/io_env.hpp"

namespace tagspin::sim {
namespace {

using core::IoStatus;
using core::OpenMode;

std::string bytesAt(const DiskImage& image, const std::string& path) {
  const auto it = image.find(path);
  return it == image.end() ? std::string("<missing>") : it->second;
}

TEST(SimIoEnv, WritesAreVisibleImmediatelyButNotDurable) {
  SimIoEnv env(DiskImage{{"f", "old"}});
  const IoStatus fd = env.open("f", OpenMode::kTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(core::writeAllRetry(env, int(fd.value), "new!", 4).ok());

  // The process sees the new bytes...
  EXPECT_EQ(bytesAt(env.liveImage(), "f"), "new!");
  // ...but a power cut that keeps nothing un-fsynced still has the old file
  // (the truncate and the write were both only in cache).
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "f"),
            "old");
  // A cut that keeps everything has the new one.
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kAll, 0}), "f"),
            "new!");

  ASSERT_TRUE(env.fsync(int(fd.value)).ok());
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "f"),
            "new!");
}

TEST(SimIoEnv, NewFileNeedsParentDirsyncToSurviveAPowerCut) {
  SimIoEnv env;
  const IoStatus fd = env.open("fresh", OpenMode::kTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(core::writeAllRetry(env, int(fd.value), "data", 4).ok());
  ASSERT_TRUE(env.fsync(int(fd.value)).ok());

  // Data fsynced, but the directory entry is not: the whole file vanishes.
  EXPECT_EQ(env.crashImage({CrashPersist::Mode::kNone, 0}).count("fresh"), 0u);
  // The metadata-journal variant can keep the entry.
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kMetaOnly, 0}),
                    "fresh"),
            "data");

  ASSERT_TRUE(env.syncDir(".").ok());
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "fresh"),
            "data");
}

TEST(SimIoEnv, RenameIsAtomicallyVisibleButDurableOnlyAfterDirsync) {
  SimIoEnv env(DiskImage{{"f", "old"}});
  const IoStatus fd = env.open("f.tmp", OpenMode::kTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(core::writeAllRetry(env, int(fd.value), "new!", 4).ok());
  ASSERT_TRUE(env.fsync(int(fd.value)).ok());
  ASSERT_TRUE(env.close(int(fd.value)).ok());
  ASSERT_TRUE(env.rename("f.tmp", "f").ok());

  std::string back;
  ASSERT_TRUE(env.readFile("f", back).ok());
  EXPECT_EQ(back, "new!");
  EXPECT_FALSE(env.exists("f.tmp"));

  // Un-dirsynced rename rolls back under a power cut: old file resurrected.
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "f"),
            "old");
  ASSERT_TRUE(env.syncDir(".").ok());
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "f"),
            "new!");
}

TEST(SimIoEnv, FailedFsyncDropsDirtyPagesSoARetryProvesNothing) {
  SimIoEnv env(DiskImage{{"f", "old"}});
  const IoStatus fd = env.open("f", OpenMode::kAppendable);  // op 0
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(env.truncate(int(fd.value), 0).ok());           // op 1
  ASSERT_TRUE(core::writeAllRetry(env, int(fd.value), "new!", 4).ok());  // op 2
  env.setFaults({{3, FaultKind::kEio}});
  EXPECT_EQ(env.fsync(int(fd.value)).err, EIO);               // op 3

  // fsyncgate: the cache now reflects only what actually survived, and a
  // retried fsync "succeeds" without making the lost write durable.
  EXPECT_EQ(bytesAt(env.liveImage(), "f"), "old");
  ASSERT_TRUE(env.fsync(int(fd.value)).ok());
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kAll, 0}), "f"),
            "old");
  EXPECT_EQ(env.faultsInjected(), 1u);
}

TEST(SimIoEnv, EintrAndShortWritesAreAbsorbedByTheRetryHelpers) {
  SimIoEnv env;
  const IoStatus fd = env.open("f", OpenMode::kTruncate);  // op 0
  ASSERT_TRUE(fd.ok());
  env.setFaults({{1, FaultKind::kEintr}, {2, FaultKind::kShortWrite}});
  // op 1 fails EINTR, op 2 accepts half, op 3 writes the rest.
  ASSERT_TRUE(core::writeAllRetry(env, int(fd.value), "ABCDEF", 6).ok());
  EXPECT_EQ(bytesAt(env.liveImage(), "f"), "ABCDEF");
  EXPECT_EQ(env.faultsInjected(), 2u);
  ASSERT_TRUE(env.fsync(int(fd.value)).ok());
  ASSERT_TRUE(env.syncDir(".").ok());
  EXPECT_EQ(bytesAt(env.crashImage({CrashPersist::Mode::kNone, 0}), "f"),
            "ABCDEF");
}

TEST(SimIoEnv, EnospcSurfacesToTheCaller) {
  SimIoEnv env;
  const IoStatus fd = env.open("f", OpenMode::kTruncate);  // op 0
  ASSERT_TRUE(fd.ok());
  env.setFaults({{1, FaultKind::kEnospc}});
  EXPECT_EQ(env.write(int(fd.value), "x", 1).err, ENOSPC);
}

TEST(SimIoEnv, PowerCutThrowsAndPoisonsEveryLaterCall) {
  SimIoEnv env;
  env.setFaults({{1, FaultKind::kCrash}});
  const IoStatus fd = env.open("f", OpenMode::kTruncate);  // op 0
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(env.crashed());
  EXPECT_THROW(env.write(int(fd.value), "x", 1), SimCrash);  // op 1
  EXPECT_TRUE(env.crashed());

  // Destructors unwinding past the cut must get errors, not progress.
  EXPECT_EQ(env.write(int(fd.value), "x", 1).err, EIO);
  EXPECT_EQ(env.fsync(int(fd.value)).err, EIO);
  EXPECT_EQ(env.close(int(fd.value)).err, EIO);
  EXPECT_EQ(env.syncDir(".").err, EIO);
}

TEST(SimIoEnv, CrashImagesAreDeterministicPerSeed) {
  const auto build = [] {
    SimIoEnv env(DiskImage{{"f", "0123456789"}});
    const IoStatus fd = env.open("f", OpenMode::kAppendable);
    env.seekEnd(int(fd.value));
    for (int i = 0; i < 6; ++i) {
      core::writeAllRetry(env, int(fd.value), "chunk", 5);
    }
    return env.crashImage({CrashPersist::Mode::kSubset, 42});
  };
  const DiskImage a = build();
  const DiskImage b = build();
  EXPECT_EQ(a, b);

  SimIoEnv env(DiskImage{{"f", "0123456789"}});
  const IoStatus fd = env.open("f", OpenMode::kAppendable);
  env.seekEnd(int(fd.value));
  for (int i = 0; i < 6; ++i) {
    core::writeAllRetry(env, int(fd.value), "chunk", 5);
  }
  // Every subset image is durable-bytes plus some write-back subset, so the
  // durable prefix must always survive verbatim.
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const std::string bytes =
        bytesAt(env.crashImage({CrashPersist::Mode::kSubset, seed}), "f");
    ASSERT_GE(bytes.size(), 10u);
    EXPECT_EQ(bytes.substr(0, 10), "0123456789") << "seed " << seed;
  }
}

TEST(SimIoEnv, WriteFileDurableIsOldOrNewAtEverySyscallBoundary) {
  // The durable-replace recipe against its own falsifier: power-cut every
  // boundary and demand bit-identical old-or-new under every variant.
  uint64_t boundaries = 0;
  {
    SimIoEnv probe(DiskImage{{"f", "old"}});
    core::writeFileDurable(probe, "f", "new!");
    boundaries = probe.opCount();
  }
  ASSERT_GT(boundaries, 4u);
  for (uint64_t k = 0; k < boundaries; ++k) {
    SimIoEnv env(DiskImage{{"f", "old"}});
    env.setFaults({{k, FaultKind::kCrash}});
    try {
      core::writeFileDurable(env, "f", "new!");
      FAIL() << "crash at op " << k << " did not surface";
    } catch (const SimCrash&) {
    }
    for (const CrashPersist::Mode mode :
         {CrashPersist::Mode::kNone, CrashPersist::Mode::kAll,
          CrashPersist::Mode::kMetaOnly, CrashPersist::Mode::kPrefix,
          CrashPersist::Mode::kSubset}) {
      const std::string bytes =
          bytesAt(env.crashImage({mode, 7 * k + 1}), "f");
      EXPECT_TRUE(bytes == "old" || bytes == "new!")
          << "crash at op " << k << ", mode "
          << persistModeName(mode) << ": got \"" << bytes << '"';
    }
  }
}

}  // namespace
}  // namespace tagspin::sim
