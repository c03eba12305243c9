// SimIoEnv: a deterministic page-cache + directory-journal model of storage
// behind the core::IoEnv seam, built to *falsify* durability claims.
//
// The model separates what the process sees from what a power cut keeps:
//
//  * per file, `cache` (the content reads and appends observe) vs `durable`
//    (bytes known to be on stable media), with the writes since the last
//    fsync kept as an ordered list of pending extents -- a crash may keep
//    any write-back subset of them, in any order, partially;
//  * a single ordered metadata journal of directory operations (create,
//    rename, remove): visibility is immediate and renames are atomic, but
//    nothing is durable until syncDir on the parent -- so a freshly created
//    file whose data was fsynced can still vanish entirely, and an
//    un-dirsynced rename can roll back;
//  * injected faults by global syscall index: EIO, ENOSPC, EINTR, short
//    writes, and fsync that fails *after* persisting a seeded subset of the
//    pending extents -- and then, as POSIX permits, drops the rest from the
//    dirty set, so retrying the fsync "succeeds" without making the data
//    durable (the fsyncgate semantics);
//  * a power cut at any syscall boundary: the scheduled op never executes,
//    SimCrash is thrown, and every later call fails with EIO so destructors
//    unwind quietly.  crashImage() then materializes the disk a recovery
//    process would mount, under a configurable write-back variant.
//
// Everything is deterministic: the op counter gives every syscall a stable
// index, and all randomness derives from explicit seeds, so any failing
// (schedule, persist variant) pair replays exactly -- which is what lets
// the eval::crash shrinker reduce failures to minimal artifacts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/io_env.hpp"

namespace tagspin::sim {

/// Thrown at the scheduled power-cut boundary.  Deliberately NOT derived
/// from std::exception: production code legitimately catches
/// std::exception around storage calls (a failed shard checkpoint must not
/// kill the fleet tick), and a power cut must not be absorbed by those
/// handlers.
struct SimCrash {};

enum class FaultKind {
  kEio,               // the op fails with EIO, nothing happens
  kEnospc,            // the op fails with ENOSPC, nothing happens
  kEintr,             // the op fails with EINTR, nothing happens
  kShortWrite,        // a write accepts only half its bytes
  kFsyncFailPartial,  // fsync persists a seeded subset, fails EIO, and
                      // marks the rest clean (fsyncgate)
  kCrash,             // power cut at this op
};

const char* faultKindName(FaultKind kind);

struct Fault {
  uint64_t opIndex = 0;  // global syscall index the fault fires at
  FaultKind kind = FaultKind::kEio;
};
using FaultSchedule = std::vector<Fault>;

/// How much of the un-fsynced state a power cut keeps.
struct CrashPersist {
  enum class Mode {
    kNone,      // durable state only: nothing past the last fsync/dirsync
    kAll,       // every pending extent and journal entry made it
    kMetaOnly,  // full metadata journal, no pending data (a journaling fs
                // committing metadata while data pages are still dirty --
                // the variant that catches rename-before-fsync bugs)
    kPrefix,    // seeded prefix of pending ops, last write possibly torn
    kSubset,    // seeded independent subset of pending writes (write-back
                // reordering); files with a pending truncate degrade to
                // prefix, and the metadata journal always applies a prefix
                // (metadata journals are ordered on real filesystems)
  };
  Mode mode = Mode::kNone;
  uint64_t seed = 0;
};

const char* persistModeName(CrashPersist::Mode mode);

/// Post-power-cut disk: path -> bytes.
using DiskImage = std::map<std::string, std::string>;

class SimIoEnv final : public core::IoEnv {
 public:
  SimIoEnv() = default;
  /// Start from a mounted disk: every file durable, cache == durable,
  /// empty journal (how the explorer hands a crash image to recovery).
  explicit SimIoEnv(const DiskImage& image);

  /// Inject faults by syscall index (the only way to inject one); a power
  /// cut at op k is the fault {k, kCrash}.
  void setFaults(FaultSchedule schedule) { faults_ = std::move(schedule); }
  /// Seed for the intra-fault randomness (kFsyncFailPartial subsets).
  void setFaultSeed(uint64_t seed) { faultSeed_ = seed; }

  /// Mutating syscalls issued so far (the crash-point enumeration domain).
  uint64_t opCount() const { return ops_; }
  bool crashed() const { return crashed_; }
  uint64_t faultsInjected() const { return faultsInjected_; }

  /// Materialize the disk a power cut at the current state would leave.
  DiskImage crashImage(const CrashPersist& persist) const;
  /// The live view (cache + visible namespace) -- what a clean process
  /// sees, not what a crash keeps.
  DiskImage liveImage() const;

  // core::IoEnv
  core::IoStatus open(const std::string& path, core::OpenMode mode) override;
  core::IoStatus write(int fd, const void* data, size_t size) override;
  core::IoStatus fsync(int fd) override;
  core::IoStatus close(int fd) override;
  core::IoStatus truncate(int fd, uint64_t size) override;
  core::IoStatus seekEnd(int fd) override;
  core::IoStatus rename(const std::string& from,
                        const std::string& to) override;
  core::IoStatus remove(const std::string& path) override;
  core::IoStatus syncDir(const std::string& dir) override;
  core::IoStatus readFile(const std::string& path, std::string& out) override;
  bool exists(const std::string& path) override;

 private:
  struct PendingOp {
    bool isTruncate = false;
    uint64_t offset = 0;             // write offset / truncate size
    std::vector<uint8_t> bytes;      // write payload (empty for truncate)
  };
  struct File {
    std::vector<uint8_t> cache;
    std::vector<uint8_t> durable;
    std::vector<PendingOp> pending;
  };
  struct Handle {
    int fileId = -1;
    uint64_t cursor = 0;
  };
  struct DirOp {
    enum class Kind { kCreate, kRename, kRemove };
    Kind kind = Kind::kCreate;
    std::string a;  // created/removed path, or rename source
    std::string b;  // rename destination
    int fileId = -1;
  };

  /// Count the op, fire a scheduled power cut, and report any other
  /// scheduled fault in `*fault`; false when none fires at this op.
  bool tick(FaultKind* fault);
  File& fileAt(int fileId) { return files_.at(fileId); }
  static void applyPending(std::vector<uint8_t>& content, const PendingOp& op,
                           size_t byteLimit);

  std::map<int, File> files_;
  std::map<std::string, int> visible_;
  std::map<std::string, int> durable_;
  std::vector<DirOp> journal_;
  std::map<int, Handle> handles_;
  int nextFd_ = 3;
  int nextFileId_ = 1;
  uint64_t ops_ = 0;
  bool crashed_ = false;
  FaultSchedule faults_;
  uint64_t faultsInjected_ = 0;
  uint64_t faultSeed_ = 0x5EEDF00DULL;
};

}  // namespace tagspin::sim
