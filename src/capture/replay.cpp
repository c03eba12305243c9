#include "capture/replay.hpp"

#include "rfid/llrp.hpp"

namespace tagspin::capture {

uint64_t replayStreamBytes(size_t reports) {
  return uint64_t(reports) * (sizeof(TimedReport) +
                              rfid::llrp::kMessageSize + sizeof(double));
}

std::shared_ptr<const ReplayStream> makeReplayStream(TimedStream timed) {
  // The unbudgeted path cannot be refused, so the Result always holds.
  return *makeReplayStreamBudgeted(std::move(timed), nullptr);
}

core::Result<std::shared_ptr<const ReplayStream>> makeReplayStreamBudgeted(
    TimedStream timed, core::MemArena* arena) {
  using StreamResult = core::Result<std::shared_ptr<const ReplayStream>>;
  const uint64_t bytes = replayStreamBytes(timed.size());
  if (arena && !arena->tryReserve(bytes)) {
    return StreamResult::fail(
        core::ErrorCode::kOutOfMemory,
        "replay stream refused: " + std::to_string(bytes) +
            " bytes denied by arena '" + arena->domain() + "'");
  }
  auto stream = std::make_shared<ReplayStream>();
  if (arena) stream->reservation = core::MemReservation(arena, bytes);
  stream->timed = std::move(timed);
  stream->wire.reserve(stream->timed.size() * rfid::llrp::kMessageSize);
  stream->releaseS.reserve(stream->timed.size());
  const double firstDeliveryS =
      stream->timed.empty() ? 0.0 : stream->timed.front().deliveryS;
  for (const TimedReport& tr : stream->timed) {
    rfid::llrp::appendReport(stream->wire, tr.report);
    stream->releaseS.push_back(tr.deliveryS - firstDeliveryS);
  }
  return StreamResult::ok(std::move(stream));
}

ReplayTransport::ReplayTransport(std::shared_ptr<const ReplayStream> stream,
                                 ReplayTransportConfig config)
    : stream_(std::move(stream)), config_(config) {}

bool ReplayTransport::connect(double nowS) {
  if (connected_) return true;
  if (connectStartedS_ < 0.0) connectStartedS_ = nowS;
  if (nowS - connectStartedS_ + 1e-12 < config_.connectDelayS) return false;
  connected_ = true;
  if (!epochSet_) {
    epochS_ = nowS;
    epochSet_ = true;
  }
  return true;
}

runtime::TransportRead ReplayTransport::poll(double nowS) {
  runtime::TransportRead read;
  if (!connected_) {
    read.status = runtime::TransportStatus::kClosed;
    return read;
  }
  const size_t total = stream_->timed.size();
  const double elapsed = nowS - epochS_;
  size_t end = nextFrame_;
  while (end < total &&
         (config_.speed <= 0.0 ||
          stream_->releaseS[end] <= elapsed * config_.speed + 1e-12)) {
    ++end;
  }
  if (end > nextFrame_) {
    const size_t from = nextFrame_ * rfid::llrp::kMessageSize;
    const size_t to = end * rfid::llrp::kMessageSize;
    read.bytes.assign(stream_->wire.begin() + from,
                      stream_->wire.begin() + to);
    nextFrame_ = end;
    read.status = runtime::TransportStatus::kOk;
  } else {
    read.status = runtime::TransportStatus::kIdle;
  }
  return read;
}

void ReplayTransport::close() {
  connected_ = false;
  connectStartedS_ = -1.0;
  // epochS_ survives: the schedule keeps running while disconnected, as a
  // live reader's stream would (frames "emitted" while away stay delivered
  // in order here, though -- replay preserves content, the flaky transport
  // is where loss is simulated).
}

}  // namespace tagspin::capture
