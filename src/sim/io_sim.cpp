#include "sim/io_sim.hpp"

#include <algorithm>
#include <cerrno>

#include "sim/rng.hpp"

namespace tagspin::sim {

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEio: return "eio";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kEintr: return "eintr";
    case FaultKind::kShortWrite: return "short_write";
    case FaultKind::kFsyncFailPartial: return "fsync_fail_partial";
    case FaultKind::kCrash: return "crash";
  }
  return "unknown";
}

const char* persistModeName(CrashPersist::Mode mode) {
  switch (mode) {
    case CrashPersist::Mode::kNone: return "none";
    case CrashPersist::Mode::kAll: return "all";
    case CrashPersist::Mode::kMetaOnly: return "meta_only";
    case CrashPersist::Mode::kPrefix: return "prefix";
    case CrashPersist::Mode::kSubset: return "subset";
  }
  return "unknown";
}

SimIoEnv::SimIoEnv(const DiskImage& image) {
  for (const auto& [path, bytes] : image) {
    const int id = nextFileId_++;
    File f;
    f.cache.assign(bytes.begin(), bytes.end());
    f.durable = f.cache;
    files_[id] = std::move(f);
    visible_[path] = id;
    durable_[path] = id;
  }
}

bool SimIoEnv::tick(FaultKind* fault) {
  const uint64_t op = ops_++;
  for (const Fault& f : faults_) {
    if (f.opIndex == op) {
      if (f.kind == FaultKind::kCrash) {
        crashed_ = true;
        ++faultsInjected_;
        throw SimCrash{};
      }
      *fault = f.kind;
      ++faultsInjected_;
      return true;
    }
  }
  return false;
}

core::IoStatus SimIoEnv::open(const std::string& path, core::OpenMode mode) {
  if (crashed_) return {-1, EIO};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {-1, EIO};
      case FaultKind::kEnospc: return {-1, ENOSPC};
      case FaultKind::kEintr: return {-1, EINTR};
      default: break;  // write/fsync-shaped faults don't apply to open
    }
  }
  int fileId;
  const auto it = visible_.find(path);
  if (it == visible_.end()) {
    fileId = nextFileId_++;
    files_[fileId] = File{};
    visible_[path] = fileId;
    journal_.push_back({DirOp::Kind::kCreate, path, "", fileId});
  } else {
    fileId = it->second;
    if (mode == core::OpenMode::kTruncate) {
      File& f = files_[fileId];
      f.cache.clear();
      f.pending.push_back({true, 0, {}});
    }
  }
  const int fd = nextFd_++;
  handles_[fd] = {fileId, 0};
  return {fd, 0};
}

core::IoStatus SimIoEnv::write(int fd, const void* data, size_t size) {
  if (crashed_) return {0, EIO};
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  FaultKind fault{};
  size_t accept = size;
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEnospc: return {0, ENOSPC};
      case FaultKind::kEintr: return {0, EINTR};
      case FaultKind::kShortWrite:
        if (size > 1) accept = size / 2;
        break;
      default: break;
    }
  }
  File& f = fileAt(it->second.fileId);
  const auto* bytes = static_cast<const uint8_t*>(data);
  const uint64_t offset = it->second.cursor;
  if (f.cache.size() < offset + accept) f.cache.resize(offset + accept);
  std::copy(bytes, bytes + accept, f.cache.begin() + offset);
  f.pending.push_back(
      {false, offset, std::vector<uint8_t>(bytes, bytes + accept)});
  it->second.cursor += accept;
  return {static_cast<long>(accept), 0};
}

core::IoStatus SimIoEnv::fsync(int fd) {
  if (crashed_) return {0, EIO};
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  File& f = fileAt(it->second.fileId);
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEintr:
        return {0, EINTR};  // nothing happened; a retry is sound
      case FaultKind::kEio:
      case FaultKind::kEnospc:
      case FaultKind::kFsyncFailPartial: {
        // The fsyncgate semantics: a failed fsync may have persisted any
        // subset of the dirty pages, and POSIX lets the kernel mark the
        // rest clean -- so they are dropped from pending WITHOUT reaching
        // durable, and a retried fsync "succeeds" vacuously.
        if (fault == FaultKind::kFsyncFailPartial) {
          auto rng = makeRng(deriveSeed(faultSeed_, ops_));
          for (const PendingOp& op : f.pending) {
            if ((rng() & 1u) != 0) {
              applyPending(f.durable, op, op.bytes.size());
            }
          }
        }
        f.pending.clear();
        f.cache = f.durable;  // reads now see what actually survived
        return {0, fault == FaultKind::kEnospc ? ENOSPC : EIO};
      }
      default: break;
    }
  }
  f.durable = f.cache;
  f.pending.clear();
  return {0, 0};
}

core::IoStatus SimIoEnv::close(int fd) {
  if (crashed_) return {0, EIO};
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEintr: return {0, EINTR};
      default: break;
    }
  }
  handles_.erase(it);
  return {0, 0};
}

core::IoStatus SimIoEnv::truncate(int fd, uint64_t size) {
  if (crashed_) return {0, EIO};
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEintr: return {0, EINTR};
      default: break;
    }
  }
  File& f = fileAt(it->second.fileId);
  f.cache.resize(size);
  f.pending.push_back({true, size, {}});
  return {0, 0};
}

core::IoStatus SimIoEnv::seekEnd(int fd) {
  // Cursor motion only -- no durability consequence, so no op index.
  if (crashed_) return {0, EIO};
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  it->second.cursor = fileAt(it->second.fileId).cache.size();
  return {static_cast<long>(it->second.cursor), 0};
}

core::IoStatus SimIoEnv::rename(const std::string& from,
                                const std::string& to) {
  if (crashed_) return {0, EIO};
  const auto it = visible_.find(from);
  if (it == visible_.end()) return {0, ENOENT};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEintr: return {0, EINTR};
      default: break;
    }
  }
  const int fileId = it->second;
  visible_.erase(it);
  visible_[to] = fileId;  // atomic replace; any previous file is orphaned
  journal_.push_back({DirOp::Kind::kRename, from, to, fileId});
  return {0, 0};
}

core::IoStatus SimIoEnv::remove(const std::string& path) {
  if (crashed_) return {0, EIO};
  const auto it = visible_.find(path);
  if (it == visible_.end()) return {0, ENOENT};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEintr: return {0, EINTR};
      default: break;
    }
  }
  visible_.erase(it);
  journal_.push_back({DirOp::Kind::kRemove, path, "", -1});
  return {0, 0};
}

core::IoStatus SimIoEnv::syncDir(const std::string& dir) {
  if (crashed_) return {0, EIO};
  FaultKind fault{};
  if (tick(&fault)) {
    switch (fault) {
      case FaultKind::kEio: return {0, EIO};
      case FaultKind::kEintr: return {0, EINTR};
      default: break;
    }
  }
  // Apply (in order) every journaled entry whose parent is `dir`.
  std::vector<DirOp> keep;
  for (const DirOp& op : journal_) {
    if (core::parentDir(op.a) != dir) {
      keep.push_back(op);
      continue;
    }
    switch (op.kind) {
      case DirOp::Kind::kCreate: durable_[op.a] = op.fileId; break;
      case DirOp::Kind::kRename:
        durable_.erase(op.a);
        durable_[op.b] = op.fileId;
        break;
      case DirOp::Kind::kRemove: durable_.erase(op.a); break;
    }
  }
  journal_ = std::move(keep);
  return {0, 0};
}

core::IoStatus SimIoEnv::readFile(const std::string& path, std::string& out) {
  if (crashed_) return {0, EIO};
  const auto it = visible_.find(path);
  if (it == visible_.end()) return {0, ENOENT};
  const File& f = files_.at(it->second);
  out.assign(f.cache.begin(), f.cache.end());
  return {static_cast<long>(out.size()), 0};
}

bool SimIoEnv::exists(const std::string& path) {
  return visible_.count(path) > 0;
}

void SimIoEnv::applyPending(std::vector<uint8_t>& content,
                            const PendingOp& op, size_t byteLimit) {
  if (op.isTruncate) {
    content.resize(op.offset);
    return;
  }
  const size_t n = std::min(op.bytes.size(), byteLimit);
  if (content.size() < op.offset + n) {
    content.resize(op.offset + n);  // holes read back as zeros
  }
  std::copy(op.bytes.begin(), op.bytes.begin() + n,
            content.begin() + op.offset);
}

DiskImage SimIoEnv::crashImage(const CrashPersist& persist) const {
  using Mode = CrashPersist::Mode;
  auto rng = makeRng(deriveSeed(persist.seed, 0xD15C));

  // Namespace: durable entries plus a journal prefix.  The journal is
  // ordered (as metadata journals are), so only prefixes are reachable.
  size_t metaCount = 0;
  switch (persist.mode) {
    case Mode::kNone: metaCount = 0; break;
    case Mode::kAll:
    case Mode::kMetaOnly: metaCount = journal_.size(); break;
    case Mode::kPrefix:
    case Mode::kSubset:
      metaCount = journal_.empty() ? 0 : rng() % (journal_.size() + 1);
      break;
  }
  std::map<std::string, int> ns = durable_;
  for (size_t i = 0; i < metaCount; ++i) {
    const DirOp& op = journal_[i];
    switch (op.kind) {
      case DirOp::Kind::kCreate: ns[op.a] = op.fileId; break;
      case DirOp::Kind::kRename:
        ns.erase(op.a);
        ns[op.b] = op.fileId;
        break;
      case DirOp::Kind::kRemove: ns.erase(op.a); break;
    }
  }

  DiskImage image;
  for (const auto& [path, fileId] : ns) {
    const File& f = files_.at(fileId);
    std::vector<uint8_t> content = f.durable;
    switch (persist.mode) {
      case Mode::kNone:
      case Mode::kMetaOnly:
        break;
      case Mode::kAll:
        for (const PendingOp& op : f.pending) {
          applyPending(content, op, op.bytes.size());
        }
        break;
      case Mode::kPrefix: {
        const size_t count =
            f.pending.empty() ? 0 : rng() % (f.pending.size() + 1);
        for (size_t i = 0; i < count; ++i) {
          applyPending(content, f.pending[i], f.pending[i].bytes.size());
        }
        // The next write may be torn mid-extent.
        if (count < f.pending.size() && !f.pending[count].isTruncate &&
            !f.pending[count].bytes.empty() && (rng() & 1u) != 0) {
          applyPending(content, f.pending[count],
                       rng() % f.pending[count].bytes.size());
        }
        break;
      }
      case Mode::kSubset: {
        const bool hasTruncate =
            std::any_of(f.pending.begin(), f.pending.end(),
                        [](const PendingOp& op) { return op.isTruncate; });
        if (hasTruncate) {
          // Reordering around a size change has no single defensible
          // semantics; fall back to the ordered-prefix model.
          const size_t count = rng() % (f.pending.size() + 1);
          for (size_t i = 0; i < count; ++i) {
            applyPending(content, f.pending[i], f.pending[i].bytes.size());
          }
        } else {
          for (const PendingOp& op : f.pending) {
            const uint64_t draw = rng();
            if ((draw & 1u) == 0) continue;  // this extent never landed
            const size_t limit = ((draw >> 1) & 3u) == 0 && !op.bytes.empty()
                                     ? static_cast<size_t>((draw >> 3) %
                                                           op.bytes.size())
                                     : op.bytes.size();
            applyPending(content, op, limit);
          }
        }
        break;
      }
    }
    image[path] = std::string(content.begin(), content.end());
  }
  return image;
}

DiskImage SimIoEnv::liveImage() const {
  DiskImage image;
  for (const auto& [path, fileId] : visible_) {
    const File& f = files_.at(fileId);
    image[path] = std::string(f.cache.begin(), f.cache.end());
  }
  return image;
}

}  // namespace tagspin::sim
