#include "rfid/llrp.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geom/angles.hpp"

namespace tagspin::rfid::llrp {

namespace {

// Message layout (big-endian, 40 bytes total):
//   0  u16  message type (61 = RO_ACCESS_REPORT)
//   2  u16  version/flags (0x0100)
//   4  u32  message length (== kMessageSize)
//   8  u64  EPC high bits
//  16  u32  EPC low bits
//  20  u64  timestamp, microseconds
//  28  u16  Impinj PhaseAngle, 1/4096ths of a turn
//  30  i16  peak RSSI, centi-dBm
//  32  u16  channel index
//  34  u32  carrier frequency, kHz
//  38  u16  antenna id (1-based on the wire, as in LLRP)
constexpr uint16_t kMessageType = 61;
constexpr uint16_t kVersion = 0x0100;

/// Writes the low `bytes` bytes of `v` big-endian at `p`; returns the end.
uint8_t* putBigEndian(uint8_t* p, uint64_t v, int bytes) {
  for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
    *p++ = static_cast<uint8_t>(v >> shift);
  }
  return p;
}
uint8_t* putU16(uint8_t* p, uint16_t v) { return putBigEndian(p, v, 2); }
uint8_t* putU32(uint8_t* p, uint32_t v) { return putBigEndian(p, v, 4); }
uint8_t* putU64(uint8_t* p, uint64_t v) { return putBigEndian(p, v, 8); }

uint16_t getU16(std::span<const uint8_t> d, size_t at) {
  return static_cast<uint16_t>(static_cast<uint16_t>(d[at]) << 8 |
                               static_cast<uint16_t>(d[at + 1]));
}
uint32_t getU32(std::span<const uint8_t> d, size_t at) {
  return static_cast<uint32_t>(getU16(d, at)) << 16 | getU16(d, at + 2);
}
uint64_t getU64(std::span<const uint8_t> d, size_t at) {
  return static_cast<uint64_t>(getU32(d, at)) << 32 | getU32(d, at + 4);
}

}  // namespace

double phaseResolutionRad() { return 2.0 * std::numbers::pi / 4096.0; }

void appendReport(std::vector<uint8_t>& out, const TagReport& report) {
  uint8_t frame[kMessageSize];
  uint8_t* p = putU16(frame, kMessageType);
  p = putU16(p, kVersion);
  p = putU32(p, static_cast<uint32_t>(kMessageSize));
  p = putU64(p, report.epc.hi());
  p = putU32(p, report.epc.lo());
  p = putU64(p, static_cast<uint64_t>(std::llround(report.timestampS * 1e6)));
  const double turns = geom::wrapTwoPi(report.phaseRad) /
                       (2.0 * std::numbers::pi);
  p = putU16(p, static_cast<uint16_t>(std::lround(turns * 4096.0)) & 0x0FFF);
  p = putU16(p, static_cast<uint16_t>(static_cast<int16_t>(
                    std::lround(report.rssiDbm * 100.0))));
  p = putU16(p, static_cast<uint16_t>(report.channelIndex));
  p = putU32(p, static_cast<uint32_t>(std::llround(report.frequencyHz / 1e3)));
  putU16(p, static_cast<uint16_t>(report.antennaPort + 1));
  out.insert(out.end(), frame, frame + kMessageSize);
}

std::vector<uint8_t> encodeReport(const TagReport& report) {
  std::vector<uint8_t> out;
  appendReport(out, report);
  return out;
}

namespace {

/// Header check shared by the strict and tolerant decoders; a frame whose
/// first ten bytes pass this check always decodes (the payload fields have
/// no invalid encodings).
bool headerValid(std::span<const uint8_t> data, size_t at) {
  return getU16(data, at) == kMessageType &&
         getU16(data, at + 2) == kVersion &&
         getU32(data, at + 4) == kMessageSize;
}

}  // namespace

TagReport decodeReport(std::span<const uint8_t> data) {
  if (data.size() < kMessageSize) {
    throw std::invalid_argument(
        "llrp: truncated message: need " + std::to_string(kMessageSize) +
        " bytes, got " + std::to_string(data.size()));
  }
  if (getU16(data, 0) != kMessageType) {
    throw std::invalid_argument(
        "llrp: unexpected message type " + std::to_string(getU16(data, 0)) +
        " at byte offset 0 (want " + std::to_string(kMessageType) + ")");
  }
  if (getU16(data, 2) != kVersion) {
    throw std::invalid_argument(
        "llrp: unsupported version " + std::to_string(getU16(data, 2)) +
        " at byte offset 2");
  }
  if (getU32(data, 4) != kMessageSize) {
    throw std::invalid_argument(
        "llrp: bad message length " + std::to_string(getU32(data, 4)) +
        " at byte offset 4 (want " + std::to_string(kMessageSize) + ")");
  }
  TagReport r;
  r.epc = Epc{getU64(data, 8), getU32(data, 16)};
  r.timestampS = static_cast<double>(getU64(data, 20)) / 1e6;
  r.phaseRad = static_cast<double>(getU16(data, 28) & 0x0FFF) / 4096.0 *
               2.0 * std::numbers::pi;
  r.rssiDbm = static_cast<double>(static_cast<int16_t>(getU16(data, 30))) /
              100.0;
  r.channelIndex = getU16(data, 32);
  r.frequencyHz = static_cast<double>(getU32(data, 34)) * 1e3;
  r.antennaPort = static_cast<int>(getU16(data, 38)) - 1;
  return r;
}

std::vector<uint8_t> encodeStream(const ReportStream& reports) {
  std::vector<uint8_t> out;
  out.reserve(reports.size() * kMessageSize);
  for (const TagReport& r : reports) appendReport(out, r);
  return out;
}

ReportStream decodeStream(std::span<const uint8_t> data) {
  if (data.size() % kMessageSize != 0) {
    throw std::invalid_argument(
        "llrp: stream length " + std::to_string(data.size()) +
        " is not a whole number of " + std::to_string(kMessageSize) +
        "-byte messages");
  }
  ReportStream out;
  out.reserve(data.size() / kMessageSize);
  for (size_t at = 0; at < data.size(); at += kMessageSize) {
    try {
      out.push_back(decodeReport(data.subspan(at, kMessageSize)));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) +
                                  " (stream offset " + std::to_string(at) +
                                  ")");
    }
  }
  return out;
}

namespace {

/// Sanity bounds on a decoded payload.  Intact frames produced by any
/// plausible reader pass comfortably; chimera frames assembled from two torn
/// halves almost always land outside (the spliced header magic zeroes the
/// frequency or blows up the channel/port/timestamp).
bool payloadPlausible(const TagReport& r) {
  return r.timestampS >= 0.0 && r.timestampS < 1.0e9 &&  // < ~31 reader-years
         r.rssiDbm > -120.0 && r.rssiDbm < 30.0 &&
         r.channelIndex >= 0 && r.channelIndex < 1024 &&
         r.frequencyHz >= 1.0e8 && r.frequencyHz <= 6.0e9 &&
         r.antennaPort >= 0 && r.antennaPort < 32;
}

/// A header magic strictly inside the candidate frame means the candidate is
/// a truncated frame's prefix spliced onto the next real frame -- the real
/// boundary is at the embedded magic, so the candidate must be refused.
bool containsEmbeddedHeader(std::span<const uint8_t> data, size_t at) {
  for (size_t k = at + 1; k + 8 <= at + kMessageSize; ++k) {
    if (headerValid(data, k)) return true;
  }
  return false;
}

}  // namespace

ReportStream decodeStreamTolerant(std::span<const uint8_t> data,
                                  DecodeStats* stats) {
  DecodeStats s;
  s.bytesTotal = data.size();
  ReportStream out;
  out.reserve(data.size() / kMessageSize);

  size_t at = 0;
  bool resyncing = false;
  while (at + kMessageSize <= data.size()) {
    bool accepted = false;
    if (headerValid(data, at)) {
      if (containsEmbeddedHeader(data, at)) {
        ++s.framesRejected;
      } else {
        TagReport r = decodeReport(data.subspan(at, kMessageSize));
        if (payloadPlausible(r)) {
          out.push_back(r);
          ++s.framesDecoded;
          at += kMessageSize;
          resyncing = false;
          accepted = true;
        } else {
          ++s.framesRejected;
        }
      }
    }
    if (!accepted) {
      if (!resyncing) {
        ++s.framesSkipped;  // one resync event, however many bytes long
        resyncing = true;
      }
      ++s.bytesResynced;
      ++at;
    }
  }
  // Trailing bytes too short to hold a frame: a torn tail.
  if (at < data.size()) {
    if (!resyncing) ++s.framesSkipped;
    s.bytesResynced += data.size() - at;
  }
  if (stats) *stats = s;
  return out;
}

ReportStream TolerantStreamDecoder::feed(std::span<const uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  stats_.bytesTotal += bytes.size();

  ReportStream out;
  size_t at = 0;
  while (at + kMessageSize <= buffer_.size()) {
    bool accepted = false;
    if (headerValid(buffer_, at)) {
      if (containsEmbeddedHeader(buffer_, at)) {
        ++stats_.framesRejected;
      } else {
        TagReport r = decodeReport(
            std::span<const uint8_t>(buffer_).subspan(at, kMessageSize));
        if (payloadPlausible(r)) {
          out.push_back(r);
          ++stats_.framesDecoded;
          at += kMessageSize;
          resyncing_ = false;
          accepted = true;
        } else {
          ++stats_.framesRejected;
        }
      }
    }
    if (!accepted) {
      if (!resyncing_) {
        ++stats_.framesSkipped;
        resyncing_ = true;
      }
      ++stats_.bytesResynced;
      ++at;
    }
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(at));
  return out;
}

void TolerantStreamDecoder::finish() {
  if (!buffer_.empty()) {
    if (!resyncing_) ++stats_.framesSkipped;
    stats_.bytesResynced += buffer_.size();
    buffer_.clear();
  }
  resyncing_ = false;
}

void publishDecodeStats(const DecodeStats& delta,
                        obs::MetricsRegistry& registry) {
  obs::add(registry.counter("llrp.frames_decoded"), delta.framesDecoded);
  obs::add(registry.counter("llrp.frames_skipped"), delta.framesSkipped);
  obs::add(registry.counter("llrp.frames_rejected"), delta.framesRejected);
  obs::add(registry.counter("llrp.bytes_resynced"), delta.bytesResynced);
  obs::add(registry.counter("llrp.bytes_total"), delta.bytesTotal);
}

}  // namespace tagspin::rfid::llrp
