// In-memory storage for the benchmark's capture files and checkpoints: a
// map from path to bytes.  fsync and syncDir do nothing, so a timed write
// costs what a page-cache write costs and nothing else: no disk latency,
// and none of the durability bookkeeping of the crash simulator
// (sim::SimIoEnv copies a file's whole cache on every fsync).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/io_env.hpp"

namespace perfbench {

class MemIoEnv final : public tagspin::core::IoEnv {
 public:
  using IoStatus = tagspin::core::IoStatus;

  IoStatus open(const std::string& path, tagspin::core::OpenMode mode) override;
  IoStatus write(int fd, const void* data, size_t size) override;
  IoStatus fsync(int fd) override;
  IoStatus close(int fd) override;
  IoStatus truncate(int fd, uint64_t size) override;
  IoStatus seekEnd(int fd) override;
  IoStatus rename(const std::string& from, const std::string& to) override;
  IoStatus remove(const std::string& path) override;
  IoStatus syncDir(const std::string& dir) override;
  IoStatus readFile(const std::string& path, std::string& out) override;
  bool exists(const std::string& path) override;

  /// Every file, by path.
  std::map<std::string, std::string> files() const;

 private:
  // Open handles keep the file they opened, as a descriptor keeps its
  // inode across a rename.
  struct Handle {
    std::shared_ptr<std::string> file;
    size_t cursor = 0;
  };
  std::map<std::string, std::shared_ptr<std::string>> files_;
  std::map<int, Handle> handles_;
  int nextFd_ = 3;
};

}  // namespace perfbench
