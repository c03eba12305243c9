// Typed error taxonomy for the ingestion/localization pipeline.
//
// A production caller must decide *what to do* with a failure -- retry the
// interrogation, page an operator about a dead rig, or accept a degraded
// fix -- so the serving entry points return Result<T> carrying an ErrorCode,
// and bad input never escapes as an exception.  Every locate entry point
// (Locator, TagspinSystem and Supervisor tryLocate*) is one of them; no
// strict locate API remains.  Only an allocation failure propagates, as
// std::bad_alloc, up to the fleet's worker boundary, which quarantines the
// session.  The strict decoders (extractSnapshots, llrp::decodeStream,
// capture::decodeCapture) still throw std::invalid_argument /
// std::runtime_error; plots, the calibration prelude and test oracles use
// them.  Their serving twins do not throw: extractSnapshotsRobust returns
// Result, and the tolerant decoders skip and count what they cannot read.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace tagspin::core {

enum class ErrorCode {
  kNone = 0,
  /// The report stream holds no usable report for a requested EPC.
  kNoReports,
  /// Fewer than two registered rigs were heard at all.
  kTooFewRigs,
  /// Rigs were heard but fewer than two pass the health thresholds (and the
  /// minimal 2-rig fallback is impossible too).
  kTooFewHealthyRigs,
  /// Rig bearing rays are (anti)parallel; the intersection is unbounded.
  kDegenerateGeometry,
  /// A binary trace could not be decoded at all (no valid frame).
  kMalformedFrame,
  /// Snapshot timestamps could not be repaired into a monotone sequence.
  kNonMonotonicTime,
  /// Arc/duration coverage too low for a meaningful spectrum.
  kInsufficientCoverage,
  /// No checkpoint file exists (fresh start, not an error in itself).
  kCheckpointMissing,
  /// A checkpoint file exists but fails its integrity checks (bad CRC,
  /// truncation, malformed payload) -- resume must fall back to empty.
  kCheckpointCorrupt,
  /// A memory reservation was denied (budget exhausted or injected
  /// failure); the caller should shed, spill, or refuse -- not crash.
  kOutOfMemory,
  /// Anything that indicates a bug rather than bad input.
  kInternal,
};

/// Stable machine-readable name ("too_few_rigs", ...) for logs and JSON.
const char* errorCodeName(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Minimal expected-like carrier: either a T or an Error.  Deliberately tiny
/// -- no monadic surface, just construction and checked access.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : v_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  static Result ok(T value) { return Result(std::move(value)); }
  static Result fail(ErrorCode code, std::string message) {
    return Result(Error{code, std::move(message)});
  }

  bool hasValue() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return hasValue(); }

  /// Checked access; call only after hasValue() (asserts via std::get).
  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  const Error& error() const { return std::get<Error>(v_); }
  ErrorCode code() const {
    return hasValue() ? ErrorCode::kNone : error().code;
  }

 private:
  std::variant<T, Error> v_;
};

inline const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kNoReports: return "no_reports";
    case ErrorCode::kTooFewRigs: return "too_few_rigs";
    case ErrorCode::kTooFewHealthyRigs: return "too_few_healthy_rigs";
    case ErrorCode::kDegenerateGeometry: return "degenerate_geometry";
    case ErrorCode::kMalformedFrame: return "malformed_frame";
    case ErrorCode::kNonMonotonicTime: return "non_monotonic_time";
    case ErrorCode::kInsufficientCoverage: return "insufficient_coverage";
    case ErrorCode::kCheckpointMissing: return "checkpoint_missing";
    case ErrorCode::kCheckpointCorrupt: return "checkpoint_corrupt";
    case ErrorCode::kOutOfMemory: return "out_of_memory";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

}  // namespace tagspin::core
