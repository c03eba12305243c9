#include "mem_io.hpp"

#include <cerrno>
#include <cstring>

namespace perfbench {

using tagspin::core::IoStatus;
using tagspin::core::OpenMode;

IoStatus MemIoEnv::open(const std::string& path, OpenMode mode) {
  std::shared_ptr<std::string>& file = files_[path];
  if (!file) file = std::make_shared<std::string>();
  if (mode == OpenMode::kTruncate) file->clear();
  const int fd = nextFd_++;
  handles_[fd] = {file, 0};
  return {fd, 0};
}

IoStatus MemIoEnv::write(int fd, const void* data, size_t size) {
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  Handle& h = it->second;
  if (h.cursor + size > h.file->size()) h.file->resize(h.cursor + size);
  std::memcpy(h.file->data() + h.cursor, data, size);
  h.cursor += size;
  return {static_cast<long>(size), 0};
}

IoStatus MemIoEnv::fsync(int fd) {
  return handles_.count(fd) != 0 ? IoStatus{0, 0} : IoStatus{0, EBADF};
}

IoStatus MemIoEnv::close(int fd) {
  return handles_.erase(fd) != 0 ? IoStatus{0, 0} : IoStatus{0, EBADF};
}

IoStatus MemIoEnv::truncate(int fd, uint64_t size) {
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  it->second.file->resize(size);
  return {0, 0};
}

IoStatus MemIoEnv::seekEnd(int fd) {
  const auto it = handles_.find(fd);
  if (it == handles_.end()) return {0, EBADF};
  it->second.cursor = it->second.file->size();
  return {static_cast<long>(it->second.cursor), 0};
}

IoStatus MemIoEnv::rename(const std::string& from, const std::string& to) {
  const auto it = files_.find(from);
  if (it == files_.end()) return {0, ENOENT};
  std::shared_ptr<std::string> file = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(file);
  return {0, 0};
}

IoStatus MemIoEnv::remove(const std::string& path) {
  return files_.erase(path) != 0 ? IoStatus{0, 0} : IoStatus{0, ENOENT};
}

IoStatus MemIoEnv::syncDir(const std::string&) { return {0, 0}; }

IoStatus MemIoEnv::readFile(const std::string& path, std::string& out) {
  const auto it = files_.find(path);
  if (it == files_.end()) return {0, ENOENT};
  out = *it->second;
  return {static_cast<long>(out.size()), 0};
}

bool MemIoEnv::exists(const std::string& path) {
  return files_.count(path) != 0;
}

std::map<std::string, std::string> MemIoEnv::files() const {
  std::map<std::string, std::string> out;
  for (const auto& [path, file] : files_) out[path] = *file;
  return out;
}

}  // namespace perfbench
