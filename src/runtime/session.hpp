// ReaderSession: the supervised connection state machine for one reader.
//
//   DISCONNECTED -> CONNECTING -> SYNCING -> STREAMING -> DRAINING -> BACKOFF
//        ^                                                               |
//        +------------------------- (stop) <------------------+---------+
//
// CONNECTING waits (deadline-bounded) for the transport to establish;
// SYNCING hunts for the first valid LLRP frame boundary in the incoming
// byte stream (a connection picked up mid-stream starts inside a frame);
// STREAMING decodes tolerantly and offers reports to the bounded ingest
// queue under the configured backpressure policy; DRAINING flushes the
// decoder's buffered tail after a loss (or stop) so torn frames are
// accounted before reconnecting; BACKOFF waits out the capped
// decorrelated-jitter schedule, gated by the circuit breaker.  A breaker
// that trips (repeated half-open probe failures) parks the session in
// FAILED for the supervisor to replace.
//
// Liveness watchdogs run while STREAMING: a no-report detector (connected
// but silent longer than noReportTimeoutS) and a stuck-clock detector
// (reader timestamps stop advancing -- the reader-side clock glitch
// sim/faults injects).  Both force a drain + reconnect, which in practice
// resets a wedged RO-spec.
//
// Everything is driven by tick(nowS); the session owns no thread and no
// clock, so the whole lifecycle is deterministic under test.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "rfid/report.hpp"
#include "runtime/backoff.hpp"
#include "runtime/queue.hpp"
#include "runtime/transport.hpp"

namespace tagspin::runtime {

enum class SessionState {
  kDisconnected,
  kConnecting,
  kSyncing,
  kStreaming,
  kDraining,
  kBackoff,
  kFailed,  // circuit breaker tripped; supervisor intervention required
};
const char* sessionStateName(SessionState state);

struct SessionConfig {
  /// Deadline for transport establishment per attempt.
  double connectTimeoutS = 2.0;
  /// Deadline for the first decoded frame after establishment.
  double syncTimeoutS = 5.0;
  /// No-report watchdog: max wall time between decoded reports while
  /// streaming before the session is recycled.
  double noReportTimeoutS = 5.0;
  /// Stuck-clock watchdog: this many consecutive reports whose reader
  /// timestamp advances less than 1 ns force a recycle.
  size_t stuckClockWindow = 64;

  BackoffConfig backoff;
  CircuitBreakerConfig breaker;

  /// Ingest queue between the decode loop and the supervisor's drain (at
  /// IngestQueue's default degrade stride and high watermark).
  size_t queueCapacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kDropOldest;

  /// External admission gate on connect attempts, consulted *before* the
  /// circuit breaker so a denied gate does not burn the breaker's one
  /// half-open probe per cooldown.  The fleet layer installs a shard-local
  /// retry-budget token bucket here to pace reconnect storms; null means
  /// unrestricted.  Called with nowS; returning false defers the attempt
  /// to a later tick (counted in SessionStats::gateDeferred).
  std::function<bool(double)> connectGate;

  /// Telemetry sinks (both optional; null = uninstrumented).  Handles are
  /// resolved once in the constructor, so the streaming fast path never
  /// touches the registry's lock.  Metrics outlive the session: a replaced
  /// session keeps counting into the same registry cells.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventJournal* journal = nullptr;
};

struct SessionStats {
  uint64_t connectAttempts = 0;
  uint64_t connectFailures = 0;    // connect or sync deadline expired
  uint64_t gateDeferred = 0;       // connect attempts deferred by connectGate
  uint64_t disconnects = 0;        // transport losses while syncing/streaming
  uint64_t watchdogNoReport = 0;
  uint64_t watchdogStuckClock = 0;
  uint64_t transitions = 0;
  uint64_t bytesReceived = 0;
  uint64_t reportsDecoded = 0;
  uint64_t reportsEnqueued = 0;
  double lastReportWallS = -1.0;    // wall (tick) time of last decoded report
  double lastReaderClockS = -1.0;   // reader timestamp high watermark
};

class ReaderSession {
 public:
  ReaderSession(std::string name, std::unique_ptr<Transport> transport,
                SessionConfig config = {});

  /// Advance the state machine to `nowS`.  Monotone nowS expected.
  void tick(double nowS);

  /// Consumer side: move every queued report into `out`; returns the count.
  size_t drainInto(rfid::ReportStream& out);

  /// Ask the session to wind down: it drains, closes the transport and
  /// parks in DISCONNECTED without reconnecting.
  void requestStop();

  const std::string& name() const { return name_; }
  SessionState state() const { return state_; }
  const SessionStats& stats() const { return stats_; }
  const QueueStats& queueStats() const { return queue_.stats(); }
  const rfid::llrp::DecodeStats& decodeStats() const {
    return decoder_.stats();
  }
  const CircuitBreaker& breaker() const { return breaker_; }
  const BackoffSchedule& backoff() const { return backoff_; }
  /// Time the current BACKOFF ends (meaningful in kBackoff).
  double backoffUntilS() const { return backoffUntilS_; }

 private:
  /// Registry handles for everything the session counts; resolved once at
  /// construction (all null when no registry is configured).
  struct Instruments {
    obs::Counter* transitions = nullptr;
    obs::Counter* connectAttempts = nullptr;
    obs::Counter* connectFailures = nullptr;
    obs::Counter* disconnects = nullptr;
    obs::Counter* watchdogNoReport = nullptr;
    obs::Counter* watchdogStuckClock = nullptr;
    obs::Counter* backoffWaits = nullptr;
    obs::Counter* breakerTrips = nullptr;
    obs::Counter* bytesReceived = nullptr;
    obs::Counter* reportsDecoded = nullptr;
    obs::Counter* reportsEnqueued = nullptr;
    obs::Histogram* decodeSpan = nullptr;  // span.llrp_decode
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  void enter(SessionState next, double nowS);
  void startAttempt(double nowS);
  /// Poll + decode once; enqueue decoded reports; run watchdogs.
  void pump(double nowS);
  void failAttempt(double nowS);
  /// Drain decoder tail, close transport, then fail into backoff/stop.
  void beginDrain(double nowS);
  void deliver(const rfid::ReportStream& reports, double nowS);
  /// Push the decoder's cumulative stats delta into the llrp.* counters.
  void publishDecodeDelta();
  void noteFailureOutcome(double nowS);

  std::string name_;
  std::unique_ptr<Transport> transport_;
  SessionConfig config_;
  SessionState state_ = SessionState::kDisconnected;
  SessionStats stats_;

  rfid::llrp::TolerantStreamDecoder decoder_;
  IngestQueue<rfid::TagReport> queue_;
  BackoffSchedule backoff_;
  CircuitBreaker breaker_;

  double deadlineS_ = 0.0;      // connect/sync deadline
  double backoffUntilS_ = 0.0;
  size_t stuckClockRun_ = 0;
  bool stopRequested_ = false;

  Instruments obs_;
  obs::EventJournal* journal_ = nullptr;
  rfid::llrp::DecodeStats publishedDecode_;  // high watermark already folded
};

}  // namespace tagspin::runtime
