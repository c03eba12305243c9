// LLRP-lite binary encoding of tag reports.
//
// The paper's reader speaks LLRP (Low Level Reader Protocol) with Impinj's
// custom extension that adds the phase report.  This is a compact,
// self-contained binary codec in that spirit -- big-endian framing, one
// RO_ACCESS_REPORT message per read -- so traces can be stored/transported
// the way a real deployment would, including the *quantisation* a real
// reader applies:
//   * phase is reported in 1/4096ths of a turn (Impinj PhaseAngle),
//   * RSSI in centi-dBm as a signed 16-bit integer,
//   * the timestamp in microseconds as an unsigned 64-bit integer.
//
// decode(encode(r)) is therefore *not* bit-exact in phase/RSSI; it is
// within the hardware's own reporting resolution (tested, and shown by the
// integration tests to be harmless to localization accuracy).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "rfid/report.hpp"

namespace tagspin::rfid::llrp {

/// Wire size of one encoded report message (fixed-size framing).
inline constexpr size_t kMessageSize = 40;

/// Encode one report as a single binary message.
std::vector<uint8_t> encodeReport(const TagReport& report);

/// encodeReport's kMessageSize bytes appended to `out`, without a buffer
/// of their own: a caller encoding many reports reserves `out` once.
void appendReport(std::vector<uint8_t>& out, const TagReport& report);

/// Decode one message from the front of `data`.  Throws
/// std::invalid_argument on truncated or malformed input.
TagReport decodeReport(std::span<const uint8_t> data);

/// Encode a whole stream (concatenated messages).
std::vector<uint8_t> encodeStream(const ReportStream& reports);

/// Decode a concatenated stream; throws on any malformed message.
ReportStream decodeStream(std::span<const uint8_t> data);

/// Accounting of a tolerant decode pass.
struct DecodeStats {
  size_t framesDecoded = 0;
  /// Resynchronization events: contiguous runs of undecodable bytes, each
  /// corresponding to >= 1 lost frame.
  size_t framesSkipped = 0;
  /// Candidate frames with a valid header that were refused as phantoms: a
  /// truncated frame's surviving header followed by the next frame's bytes
  /// (detected by an embedded header magic), or a payload whose decoded
  /// fields are physically implausible.
  size_t framesRejected = 0;
  /// Bytes stepped over while hunting for the next valid frame boundary
  /// (includes any torn trailing partial frame).
  size_t bytesResynced = 0;
  size_t bytesTotal = 0;
};

/// Fold a DecodeStats *delta* into the registry's "llrp.*" counters
/// (frames_decoded, frames_skipped = resync events, frames_rejected =
/// chimera rejections, bytes_resynced, bytes_total).  Callers holding a
/// cumulative DecodeStats (TolerantStreamDecoder) publish successive
/// differences; per-invocation stats publish as-is.
void publishDecodeStats(const DecodeStats& delta,
                        obs::MetricsRegistry& registry);

/// Resynchronizing decoder for dirty streams: skips malformed or truncated
/// frames byte-by-byte until the next valid frame header, decodes everything
/// that survives, and never throws.  A frame is accepted only if no header
/// magic appears *inside* its 40 bytes (a torn write splices the next frame's
/// header into the payload) and its decoded fields are plausible (UHF-band
/// frequency, sane RSSI/channel/port/timestamp), so chimera frames assembled
/// from two torn halves are dropped instead of surfacing as phantom reports.
/// Known limit: a splice that removes an exact frame multiple glues one
/// frame's header+EPC onto another's measurement fields at the original
/// offsets; every field of that hybrid is individually genuine, so without a
/// frame CRC it cannot be told from a real report.  Damage is bounded to one
/// hybrid per splice (a real EPC with a neighbouring frame's measurements);
/// the downstream robust preprocess treats it like any other outlier read.
/// On a well-formed stream the result is bit-identical to decodeStream.
/// `stats` (optional) reports what was lost.  Stats are strictly
/// per-invocation: a caller-supplied DecodeStats is overwritten, never
/// accumulated into, so the same struct can be reused across calls.
ReportStream decodeStreamTolerant(std::span<const uint8_t> data,
                                  DecodeStats* stats = nullptr);

/// Incremental variant of decodeStreamTolerant for live transports that
/// deliver the stream in arbitrary chunks (a TCP read never respects frame
/// boundaries).  feed() appends bytes and returns every frame that can be
/// validated without waiting for more input; the undecidable tail (< one
/// frame, or a resync run still hunting for a boundary) is carried over to
/// the next feed().  finish() flushes that tail as a torn fragment -- call
/// it when the connection closes, then keep feeding after reconnect.
///
/// Feeding a whole stream in any chunking followed by finish() yields the
/// same reports and the same cumulative stats as one decodeStreamTolerant
/// call on the concatenation.
class TolerantStreamDecoder {
 public:
  /// Append bytes and decode every complete frame now decidable.
  ReportStream feed(std::span<const uint8_t> bytes);

  /// Flush the buffered tail (accounted as resynced bytes if non-empty)
  /// and reset the boundary-hunting state.  Returns nothing today --
  /// a partial frame can never decode -- but keeps the stats faithful.
  void finish();

  /// Cumulative stats since construction or the last resetStats().
  const DecodeStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Bytes buffered awaiting more input.
  size_t pendingBytes() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
  bool resyncing_ = false;
  DecodeStats stats_;
};

/// The phase quantisation step of the wire format (2*pi / 4096).
double phaseResolutionRad();

}  // namespace tagspin::rfid::llrp
