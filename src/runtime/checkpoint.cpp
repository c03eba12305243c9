#include "runtime/checkpoint.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace tagspin::runtime {

namespace {

// Slice-by-8 tables: kCrcTables[0] is the bytewise table of the reflected
// polynomial; kCrcTables[k][i] advances kCrcTables[k-1][i] by one more zero
// byte, so eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Little-endian 32-bit word at `p`, assembled from bytes so the CRC does
/// not depend on the host's byte order (compilers fuse it into one load).
uint32_t loadLe32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

// "tagspin-checkpoint v1 len=<bytes> crc32=<8 hex digits>\n"
constexpr const char* kMagic = "tagspin-checkpoint v1";

}  // namespace

uint32_t crc32(std::span<const uint8_t> data) {
  const CrcTables& t = kCrcTables;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = loadLe32(p) ^ c;
    const uint32_t hi = loadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t crc32(const std::string& data) {
  return crc32(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

std::string CheckpointStore::frame(std::string payload) {
  // The header goes in front of the payload, in the payload's own buffer:
  // the checkpoint writer reserves more than its text takes, so a moved-in
  // payload needs no second text-sized allocation.
  char header[96];
  const int n =
      std::snprintf(header, sizeof(header), "%s len=%zu crc32=%08x\n",
                    kMagic, payload.size(), crc32(payload));
  payload.insert(0, header, static_cast<size_t>(n));
  return payload;
}

core::Result<std::string> CheckpointStore::unframe(
    const std::string& fileContents) {
  using R = core::Result<std::string>;
  const size_t nl = fileContents.find('\n');
  if (nl == std::string::npos) {
    return R::fail(core::ErrorCode::kCheckpointCorrupt,
                   "checkpoint: missing header line");
  }
  const std::string header = fileContents.substr(0, nl);
  size_t len = 0;
  unsigned crc = 0;
  char magicBuf[64] = {};
  // Magic is two tokens; match it separately from the numeric fields.
  if (std::sscanf(header.c_str(), "%40s v1 len=%zu crc32=%8x", magicBuf, &len,
                  &crc) != 3 ||
      std::string(magicBuf) + " v1" != kMagic) {
    return R::fail(core::ErrorCode::kCheckpointCorrupt,
                   "checkpoint: unrecognized header: " + header);
  }
  const std::span<const uint8_t> payload(
      reinterpret_cast<const uint8_t*>(fileContents.data()) + nl + 1,
      fileContents.size() - nl - 1);
  if (payload.size() != len) {
    return R::fail(core::ErrorCode::kCheckpointCorrupt,
                   "checkpoint: truncated: header declares " +
                       std::to_string(len) + " payload bytes, file holds " +
                       std::to_string(payload.size()));
  }
  if (crc32(payload) != crc) {
    return R::fail(core::ErrorCode::kCheckpointCorrupt,
                   "checkpoint: CRC mismatch");
  }
  return R::ok(fileContents.substr(nl + 1));
}

size_t CheckpointStore::save(
    const core::CalibrationCheckpoint& checkpoint) const {
  const std::string contents = frame(core::checkpointToString(checkpoint));
  core::writeFileDurable(*io_, path_, contents);
  return contents.size();
}

core::Result<core::CalibrationCheckpoint> CheckpointStore::load() const {
  using R = core::Result<core::CalibrationCheckpoint>;
  std::string raw;
  const core::IoStatus st = io_->readFile(path_, raw);
  if (!st.ok()) {
    // Unreadable is treated like absent (a fresh start): there is nothing
    // to recover either way, and kCheckpointMissing is the code the
    // supervisor already handles by rebuilding from scratch.
    return R::fail(core::ErrorCode::kCheckpointMissing,
                   "checkpoint: cannot read " + path_ + ": " +
                       std::strerror(st.err));
  }
  const core::Result<std::string> payload = unframe(raw);
  if (!payload) {
    // A file existed but failed integrity -- this is data loss, not a fresh
    // start.  Journal it so operators can tell the two apart without
    // correlating error codes by hand.
    obs::record(journal_, 0.0, obs::Severity::kWarn, "checkpoint discarded",
                {{"path", path_}, {"reason", payload.error().message}});
    return R::fail(payload.error().code, payload.error().message);
  }
  try {
    return R::ok(core::checkpointFromString(*payload));
  } catch (const std::exception& e) {
    const std::string reason =
        std::string("checkpoint: payload malformed: ") + e.what();
    obs::record(journal_, 0.0, obs::Severity::kWarn, "checkpoint discarded",
                {{"path", path_}, {"reason", reason}});
    return R::fail(core::ErrorCode::kCheckpointCorrupt, reason);
  }
}

}  // namespace tagspin::runtime
