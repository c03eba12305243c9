// Crash-safe persistence of calibration checkpoints.
//
// The text payload (core::checkpointToString) is framed with a one-line
// header carrying its byte length and CRC-32, written to a sibling .tmp
// file (fsynced), atomically renamed over the target, and sealed with a
// parent-directory fsync (see core::writeFileDurable for the ordering
// contract).  A kill -9 -- or a power cut -- at any point
// therefore leaves either the previous intact checkpoint or the new one --
// never a torn file that silently resumes from garbage: truncation fails
// the length check, partial writes and bit rot fail the CRC, and a
// malformed payload fails the parser.  All three surface as
// ErrorCode::kCheckpointCorrupt; a missing file is the distinct
// kCheckpointMissing (a fresh start, not a fault).
//
// All storage goes through the core::IoEnv seam: production uses the
// default Posix passthrough, while the crash-point explorer (eval/crash)
// substitutes sim::SimIoEnv to falsify the old-or-new claim at every
// syscall boundary.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/errors.hpp"
#include "core/io_env.hpp"
#include "core/serialization.hpp"
#include "obs/journal.hpp"

namespace tagspin::runtime {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte span; exposed for
/// tests and for anyone framing other artifacts the same way.
uint32_t crc32(std::span<const uint8_t> data);
uint32_t crc32(const std::string& data);

class CheckpointStore {
 public:
  /// `io` is the storage environment; nullptr means the real filesystem.
  explicit CheckpointStore(std::string path, core::IoEnv* io = nullptr)
      : path_(std::move(path)), io_(&core::resolveIo(io)) {}

  const std::string& path() const { return path_; }

  /// Serialize, frame, write to `path + ".tmp"`, fsync-flush, rename,
  /// parent dirsync.  Returns the framed byte count written (telemetry
  /// wants checkpoint sizes).  Throws std::runtime_error on I/O failure
  /// (disk full, bad directory); the previous checkpoint file is untouched
  /// in that case.
  size_t save(const core::CalibrationCheckpoint& checkpoint) const;

  /// Load and verify.  kCheckpointMissing when no file exists;
  /// kCheckpointCorrupt on any integrity failure.
  core::Result<core::CalibrationCheckpoint> load() const;

  /// Optional event journal.  When set, load() records a kWarn event each
  /// time a torn or CRC-failed checkpoint is discarded, so operators can
  /// tell "no checkpoint" (fresh start) from "corrupt checkpoint" (data
  /// loss) in the journal rather than only via the returned error code.
  void setJournal(obs::EventJournal* journal) { journal_ = journal; }

  /// Frame / unframe without touching the filesystem (exposed for tests).
  /// frame() puts the header in front of `payload` in place; pass the
  /// payload with std::move to spare a copy of it.
  static std::string frame(std::string payload);
  static core::Result<std::string> unframe(const std::string& fileContents);

 private:
  std::string path_;
  core::IoEnv* io_;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace tagspin::runtime
