#include "runtime/session.hpp"

#include <utility>

#include "obs/span.hpp"

namespace tagspin::runtime {

namespace {

/// A reader timestamp that advances less than this counts toward the
/// stuck-clock watchdog.
constexpr double kStuckClockMinAdvanceS = 1e-9;

}  // namespace

const char* sessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kDisconnected: return "disconnected";
    case SessionState::kConnecting: return "connecting";
    case SessionState::kSyncing: return "syncing";
    case SessionState::kStreaming: return "streaming";
    case SessionState::kDraining: return "draining";
    case SessionState::kBackoff: return "backoff";
    case SessionState::kFailed: return "failed";
  }
  return "unknown";
}

ReaderSession::Instruments ReaderSession::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.transitions = registry->counter("session.transitions");
  in.connectAttempts = registry->counter("session.connect_attempts");
  in.connectFailures = registry->counter("session.connect_failures");
  in.disconnects = registry->counter("session.disconnects");
  in.watchdogNoReport = registry->counter("session.watchdog_no_report");
  in.watchdogStuckClock = registry->counter("session.watchdog_stuck_clock");
  in.backoffWaits = registry->counter("session.backoff_waits");
  in.breakerTrips = registry->counter("session.breaker_trips");
  in.bytesReceived = registry->counter("session.bytes_received");
  in.reportsDecoded = registry->counter("session.reports_decoded");
  in.reportsEnqueued = registry->counter("session.reports_enqueued");
  in.decodeSpan = registry->histogram("span.llrp_decode");
  return in;
}

ReaderSession::ReaderSession(std::string name,
                             std::unique_ptr<Transport> transport,
                             SessionConfig config)
    : name_(std::move(name)),
      transport_(std::move(transport)),
      config_(config),
      queue_(config.queueCapacity, config.backpressure),
      backoff_(config.backoff),
      breaker_(config.breaker),
      obs_(Instruments::resolve(config.metrics)),
      journal_(config.journal) {
  queue_.setInstruments(QueueInstruments::resolve(config.metrics));
}

void ReaderSession::enter(SessionState next, double) {
  if (next == state_) return;
  state_ = next;
  ++stats_.transitions;
  obs::add(obs_.transitions);
}

void ReaderSession::publishDecodeDelta() {
  if (!config_.metrics) return;
  const rfid::llrp::DecodeStats& cum = decoder_.stats();
  rfid::llrp::DecodeStats delta;
  delta.framesDecoded = cum.framesDecoded - publishedDecode_.framesDecoded;
  delta.framesSkipped = cum.framesSkipped - publishedDecode_.framesSkipped;
  delta.framesRejected = cum.framesRejected - publishedDecode_.framesRejected;
  delta.bytesResynced = cum.bytesResynced - publishedDecode_.bytesResynced;
  delta.bytesTotal = cum.bytesTotal - publishedDecode_.bytesTotal;
  rfid::llrp::publishDecodeStats(delta, *config_.metrics);
  publishedDecode_ = cum;
}

/// Shared failure tail: feed the breaker and either park in FAILED (trip)
/// or schedule the next backoff window.
void ReaderSession::noteFailureOutcome(double nowS) {
  breaker_.onFailure(nowS);
  if (breaker_.state() == BreakerState::kTripped) {
    obs::add(obs_.breakerTrips);
    obs::record(journal_, nowS, obs::Severity::kError,
                "circuit breaker tripped", {{"session", name_}});
    enter(SessionState::kFailed, nowS);
    return;
  }
  backoffUntilS_ = nowS + backoff_.nextDelayS();
  obs::add(obs_.backoffWaits);
  enter(SessionState::kBackoff, nowS);
}

void ReaderSession::tick(double nowS) {
  switch (state_) {
    case SessionState::kDisconnected:
      if (stopRequested_) break;
      // Gate before the breaker: allowAttempt() consumes the one half-open
      // probe per cooldown, so a budget-denied attempt must not reach it.
      if (config_.connectGate && !config_.connectGate(nowS)) {
        ++stats_.gateDeferred;
        break;
      }
      if (breaker_.allowAttempt(nowS)) startAttempt(nowS);
      break;

    case SessionState::kConnecting:
      if (stopRequested_) {
        beginDrain(nowS);
        break;
      }
      if (transport_->connect(nowS)) {
        enter(SessionState::kSyncing, nowS);
        deadlineS_ = nowS + config_.syncTimeoutS;
      } else if (nowS >= deadlineS_) {
        failAttempt(nowS);
      }
      break;

    case SessionState::kSyncing:
    case SessionState::kStreaming:
      if (stopRequested_) {
        beginDrain(nowS);
        break;
      }
      pump(nowS);
      break;

    case SessionState::kDraining:
      // beginDrain() completes synchronously; reaching a tick here means a
      // transition raced a stop -- resolve it the same way.
      beginDrain(nowS);
      break;

    case SessionState::kBackoff:
      if (stopRequested_) {
        enter(SessionState::kDisconnected, nowS);
        break;
      }
      if (nowS >= backoffUntilS_) {
        if (config_.connectGate && !config_.connectGate(nowS)) {
          ++stats_.gateDeferred;  // budget denied: stay parked in backoff
          break;
        }
        if (breaker_.allowAttempt(nowS)) {
          startAttempt(nowS);
          break;
        }
      }
      if (breaker_.state() == BreakerState::kTripped) {
        enter(SessionState::kFailed, nowS);
      }
      break;

    case SessionState::kFailed:
      break;  // terminal until the supervisor replaces the session
  }
}

void ReaderSession::startAttempt(double nowS) {
  ++stats_.connectAttempts;
  obs::add(obs_.connectAttempts);
  enter(SessionState::kConnecting, nowS);
  deadlineS_ = nowS + config_.connectTimeoutS;
  if (transport_->connect(nowS)) {
    enter(SessionState::kSyncing, nowS);
    deadlineS_ = nowS + config_.syncTimeoutS;
  }
}

void ReaderSession::pump(double nowS) {
  const TransportRead read = transport_->poll(nowS);
  if (read.status == TransportStatus::kClosed) {
    ++stats_.disconnects;
    obs::add(obs_.disconnects);
    obs::record(journal_, nowS, obs::Severity::kWarn, "transport closed",
                {{"session", name_},
                 {"state", sessionStateName(state_)}});
    beginDrain(nowS);
    return;
  }
  if (read.status == TransportStatus::kOk && !read.bytes.empty()) {
    stats_.bytesReceived += read.bytes.size();
    obs::add(obs_.bytesReceived, read.bytes.size());
    rfid::ReportStream reports;
    {
      TAGSPIN_SPAN(obs_.decodeSpan);
      reports = decoder_.feed(read.bytes);
    }
    publishDecodeDelta();
    if (!reports.empty()) {
      if (state_ == SessionState::kSyncing) {
        // First valid frame: the session is live.
        enter(SessionState::kStreaming, nowS);
        breaker_.onSuccess();
        backoff_.reset();
      }
      deliver(reports, nowS);
    }
  }

  if (state_ == SessionState::kSyncing) {
    if (nowS >= deadlineS_) failAttempt(nowS);
    return;
  }

  // STREAMING watchdogs.
  if (stats_.lastReportWallS >= 0.0 &&
      nowS - stats_.lastReportWallS > config_.noReportTimeoutS) {
    ++stats_.watchdogNoReport;
    obs::add(obs_.watchdogNoReport);
    obs::record(journal_, nowS, obs::Severity::kWarn,
                "no-report watchdog fired", {{"session", name_}});
    beginDrain(nowS);
    return;
  }
  if (stuckClockRun_ >= config_.stuckClockWindow) {
    ++stats_.watchdogStuckClock;
    obs::add(obs_.watchdogStuckClock);
    obs::record(journal_, nowS, obs::Severity::kWarn,
                "stuck-clock watchdog fired", {{"session", name_}});
    stuckClockRun_ = 0;
    beginDrain(nowS);
  }
}

void ReaderSession::deliver(const rfid::ReportStream& reports, double nowS) {
  obs::add(obs_.reportsDecoded, reports.size());
  for (const rfid::TagReport& r : reports) {
    ++stats_.reportsDecoded;
    // Stuck-clock detection on the raw decode order: a healthy reader's
    // timestamps advance; a frozen clock repeats (or barely moves) them.
    if (stats_.lastReaderClockS >= 0.0 &&
        r.timestampS - stats_.lastReaderClockS < kStuckClockMinAdvanceS) {
      ++stuckClockRun_;
    } else {
      stuckClockRun_ = 0;
    }
    if (r.timestampS > stats_.lastReaderClockS) {
      stats_.lastReaderClockS = r.timestampS;
    }
    if (queue_.offer(r)) {
      ++stats_.reportsEnqueued;
      obs::add(obs_.reportsEnqueued);
    }
  }
  stats_.lastReportWallS = nowS;
}

void ReaderSession::failAttempt(double nowS) {
  ++stats_.connectFailures;
  obs::add(obs_.connectFailures);
  transport_->close();
  decoder_.finish();
  publishDecodeDelta();
  noteFailureOutcome(nowS);
}

void ReaderSession::beginDrain(double nowS) {
  enter(SessionState::kDraining, nowS);
  // Flush the decoder's buffered tail (accounts torn fragments) and drop
  // the connection.  The queue keeps its contents: the supervisor drains
  // delivered reports even across a reconnect.
  decoder_.finish();
  publishDecodeDelta();
  transport_->close();
  stats_.lastReportWallS = -1.0;
  stuckClockRun_ = 0;
  if (stopRequested_) {
    enter(SessionState::kDisconnected, nowS);
    return;
  }
  noteFailureOutcome(nowS);
}

size_t ReaderSession::drainInto(rfid::ReportStream& out) {
  size_t n = 0;
  rfid::TagReport r;
  while (queue_.poll(r)) {
    out.push_back(r);
    ++n;
  }
  return n;
}

void ReaderSession::requestStop() { stopRequested_ = true; }

}  // namespace tagspin::runtime
