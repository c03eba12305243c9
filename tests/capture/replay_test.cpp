#include "capture/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numbers>
#include <string>

#include "capture/digest.hpp"
#include "capture/record.hpp"
#include "capture/writer.hpp"
#include "rfid/llrp.hpp"

#include "../core/ingest_stream.hpp"

namespace tagspin::capture {
namespace {

using runtime::TransportStatus;

TimedReport quantizedReport(uint32_t tag, int64_t readerUs,
                            int64_t deliveryUs) {
  TimedReport tr;
  tr.report.epc = rfid::Epc::forSimulatedTag(tag);
  tr.report.timestampS = static_cast<double>(readerUs) / 1e6;
  tr.report.phaseRad = static_cast<double>((tag * 991) % 4096) / 4096.0 * 2.0 *
                       std::numbers::pi;
  tr.report.rssiDbm = -61.0;
  tr.report.channelIndex = 12;
  tr.report.frequencyHz = 908.75e6;
  tr.report.antennaPort = static_cast<int>(tag % 4);
  tr.deliveryS = static_cast<double>(deliveryUs) / 1e6;
  return tr;
}

// Three reports delivered at 10.0s, 10.5s, 11.0s of capture time.
std::shared_ptr<const ReplayStream> threeFrameStream() {
  TimedStream s;
  s.push_back(quantizedReport(0, 10'000'000, 10'000'000));
  s.push_back(quantizedReport(1, 10'400'000, 10'500'000));
  s.push_back(quantizedReport(2, 10'900'000, 11'000'000));
  return makeReplayStream(std::move(s));
}

TEST(ReplayStream, WireAndReleaseOffsetsMatchTheCapture) {
  const auto stream = threeFrameStream();
  ASSERT_EQ(stream->timed.size(), 3u);
  EXPECT_EQ(stream->wire.size(), 3u * rfid::llrp::kMessageSize);
  ASSERT_EQ(stream->releaseS.size(), 3u);
  EXPECT_DOUBLE_EQ(stream->releaseS[0], 0.0);
  EXPECT_DOUBLE_EQ(stream->releaseS[1], 0.5);
  EXPECT_DOUBLE_EQ(stream->releaseS[2], 1.0);

  // The wire image is the exact LLRP encoding, frame by frame.
  const rfid::ReportStream decoded = rfid::llrp::decodeStream(stream->wire);
  EXPECT_EQ(streamDigest(decoded), streamDigest(stripTiming(stream->timed)));
}

TEST(ReplayStream, WireIsTheConcatenatedEncodeReportFrames) {
  // An ingest-shaped faulted stream (duplicates, reorders, clock glitches):
  // the replay builder and encodeStream append each frame in place, and
  // their bytes are encodeReport's.
  const core::testing::IngestStream ingest = core::testing::makeIngestStream(3);
  std::vector<uint8_t> frames;
  for (const rfid::TagReport& r : ingest.reports) {
    const std::vector<uint8_t> frame = rfid::llrp::encodeReport(r);
    ASSERT_EQ(frame.size(), rfid::llrp::kMessageSize);
    frames.insert(frames.end(), frame.begin(), frame.end());
  }
  EXPECT_EQ(rfid::llrp::encodeStream(ingest.reports), frames);
  EXPECT_EQ(makeReplayStream(withReaderTiming(ingest.reports))->wire, frames);
}

TEST(ReplayTransport, ReleasesFramesAgainstThePolledClock) {
  ReplayTransport t(threeFrameStream());

  // Not connected yet: polls report a closed transport.
  EXPECT_EQ(t.poll(0.0).status, TransportStatus::kClosed);

  ASSERT_TRUE(t.connect(5.0));  // epoch anchors here
  runtime::TransportRead read = t.poll(5.0);
  EXPECT_EQ(read.status, TransportStatus::kOk);
  EXPECT_EQ(read.bytes.size(), rfid::llrp::kMessageSize);  // frame 0 only
  EXPECT_EQ(t.framesDelivered(), 1u);

  EXPECT_EQ(t.poll(5.3).status, TransportStatus::kIdle);

  read = t.poll(5.5);  // release 0.5 due
  EXPECT_EQ(read.status, TransportStatus::kOk);
  EXPECT_EQ(read.bytes.size(), rfid::llrp::kMessageSize);
  EXPECT_FALSE(t.exhausted());

  read = t.poll(50.0);  // everything else
  EXPECT_EQ(read.status, TransportStatus::kOk);
  EXPECT_EQ(read.bytes.size(), rfid::llrp::kMessageSize);
  EXPECT_TRUE(t.exhausted());
  EXPECT_EQ(t.framesDelivered(), 3u);

  // Exhausted replays idle forever; the session just sees silence.
  EXPECT_EQ(t.poll(100.0).status, TransportStatus::kIdle);
}

TEST(ReplayTransport, SpeedCompressesTheSchedule) {
  ReplayTransport t(threeFrameStream(), {.speed = 2.0});
  ASSERT_TRUE(t.connect(0.0));
  // 0.5s of tick time covers 1.0s of capture time: all three frames.
  const runtime::TransportRead read = t.poll(0.5);
  EXPECT_EQ(read.status, TransportStatus::kOk);
  EXPECT_EQ(read.bytes.size(), 3u * rfid::llrp::kMessageSize);
  EXPECT_TRUE(t.exhausted());
}

TEST(ReplayTransport, NonPositiveSpeedDumpsEverythingAtOnce) {
  ReplayTransport t(threeFrameStream(), {.speed = 0.0});
  ASSERT_TRUE(t.connect(1000.0));
  EXPECT_EQ(t.poll(1000.0).bytes.size(), 3u * rfid::llrp::kMessageSize);
  EXPECT_TRUE(t.exhausted());
}

TEST(ReplayTransport, ConnectDelayGatesTheFirstFrame) {
  ReplayTransport t(threeFrameStream(), {.speed = 1.0, .connectDelayS = 0.5});
  EXPECT_FALSE(t.connect(1.0));
  EXPECT_FALSE(t.connect(1.4));
  EXPECT_EQ(t.poll(1.4).status, TransportStatus::kClosed);
  ASSERT_TRUE(t.connect(1.5));  // epoch anchors at 1.5, not 1.0
  EXPECT_EQ(t.poll(1.5).bytes.size(), rfid::llrp::kMessageSize);
  EXPECT_EQ(t.poll(1.9).status, TransportStatus::kIdle);
  EXPECT_EQ(t.poll(2.0).bytes.size(), rfid::llrp::kMessageSize);
}

TEST(ReplayTransport, ReconnectDoesNotRewindTheSchedule) {
  ReplayTransport t(threeFrameStream());
  ASSERT_TRUE(t.connect(10.0));
  EXPECT_EQ(t.poll(10.0).bytes.size(), rfid::llrp::kMessageSize);

  // Drop the connection across the 0.5 release; the schedule keeps running
  // while disconnected (frames are delivered late, in order -- replay
  // preserves content; loss simulation belongs to the flaky transport).
  t.close();
  EXPECT_EQ(t.poll(10.6).status, TransportStatus::kClosed);
  ASSERT_TRUE(t.connect(11.2));  // reconnect past both remaining releases
  const runtime::TransportRead read = t.poll(11.2);
  EXPECT_EQ(read.status, TransportStatus::kOk);
  EXPECT_EQ(read.bytes.size(), 2u * rfid::llrp::kMessageSize);
  EXPECT_EQ(t.framesDelivered(), 3u);
}

TEST(ReplayTransport, SharedStreamKeepsPerTransportCursors) {
  const auto stream = threeFrameStream();
  ReplayTransport a(stream, {.speed = 0.0});
  ReplayTransport b(stream, {.speed = 0.0});
  ASSERT_TRUE(a.connect(0.0));
  EXPECT_EQ(a.poll(0.0).bytes.size(), 3u * rfid::llrp::kMessageSize);
  // b connects later and still gets the full stream from the start.
  ASSERT_TRUE(b.connect(99.0));
  EXPECT_EQ(b.poll(99.0).bytes.size(), 3u * rfid::llrp::kMessageSize);
}

TEST(RecordingTransport, TapsTheExactBytesTheSessionSees) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "tagspin_capture_replay_test.tspc")
                               .string();
  std::remove(path.c_str());

  const auto stream = threeFrameStream();
  {
    CaptureWriter writer(path, {.chunkReports = 2});
    RecordingTransport tap(
        std::make_unique<ReplayTransport>(stream,
                                          ReplayTransportConfig{.speed = 1.0}),
        &writer);
    ASSERT_TRUE(tap.connect(20.0));
    EXPECT_EQ(tap.poll(20.0).bytes.size(), rfid::llrp::kMessageSize);
    EXPECT_EQ(tap.poll(21.0).bytes.size(), 2u * rfid::llrp::kMessageSize);
    tap.close();
    EXPECT_EQ(tap.decodeStats().framesDecoded, 3u);
    writer.close();
  }

  // The re-captured stream carries the same reports (LLRP round trip is
  // lossless on quantized values) stamped with the *poll* times as their
  // delivery times: 20.0 for frame 0, 21.0 for the burst of two.
  const TimedStream recaptured = readCaptureFile(path, /*tolerant=*/false);
  ASSERT_EQ(recaptured.size(), 3u);
  EXPECT_EQ(streamDigest(stripTiming(recaptured)),
            streamDigest(stripTiming(stream->timed)));
  EXPECT_DOUBLE_EQ(recaptured[0].deliveryS, 20.0);
  EXPECT_DOUBLE_EQ(recaptured[1].deliveryS, 21.0);
  EXPECT_DOUBLE_EQ(recaptured[2].deliveryS, 21.0);

  std::remove(path.c_str());
}

TEST(Digest, StreamDigestCoversEveryFieldInOrder) {
  const auto stream = threeFrameStream();
  const rfid::ReportStream reports = stripTiming(stream->timed);
  const uint64_t base = streamDigest(reports);
  EXPECT_EQ(streamDigest(reports), base);  // deterministic

  rfid::ReportStream reordered = {reports[1], reports[0], reports[2]};
  EXPECT_NE(streamDigest(reordered), base);

  rfid::ReportStream tweaked = reports;
  tweaked[2].phaseRad += 1e-9;  // any bit difference must show
  EXPECT_NE(streamDigest(tweaked), base);

  const std::string hex = digestHex(base);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(ReplayStreamBudgeted, ChargesTheArenaForTheStreamLifetime) {
  core::PosixMemEnv mem;
  core::MemArena arena(&mem, 0, "replay.test");
  TimedStream s;
  s.push_back(quantizedReport(0, 10'000'000, 10'000'000));
  s.push_back(quantizedReport(1, 10'400'000, 10'500'000));
  s.push_back(quantizedReport(2, 10'900'000, 11'000'000));

  const uint64_t want = replayStreamBytes(3);
  {
    auto r = makeReplayStreamBudgeted(std::move(s), &arena);
    ASSERT_TRUE(r.hasValue());
    EXPECT_EQ((*r)->wire.size(), 3u * rfid::llrp::kMessageSize);
    EXPECT_EQ(arena.usedBytes(), want);
    EXPECT_EQ(mem.stats().usedBytes, want);
  }
  // Stream destroyed: the RAII reservation returned every byte.
  EXPECT_EQ(arena.usedBytes(), 0u);
  EXPECT_EQ(mem.stats().usedBytes, 0u);
}

TEST(ReplayStreamBudgeted, DenialRefusesTheWholeStreamWithOutOfMemory) {
  core::PosixMemEnv mem;
  core::MemArena arena(&mem, replayStreamBytes(2), "replay.small");
  TimedStream s;
  s.push_back(quantizedReport(0, 10'000'000, 10'000'000));
  s.push_back(quantizedReport(1, 10'400'000, 10'500'000));
  s.push_back(quantizedReport(2, 10'900'000, 11'000'000));

  auto r = makeReplayStreamBudgeted(std::move(s), &arena);
  ASSERT_FALSE(r.hasValue());
  EXPECT_EQ(r.error().code, core::ErrorCode::kOutOfMemory);
  // No partial image, no stranded accounting.
  EXPECT_EQ(arena.usedBytes(), 0u);
  EXPECT_EQ(mem.stats().usedBytes, 0u);
}

TEST(ReplayStreamBudgeted, NullArenaMatchesTheUnbudgetedBuilder) {
  TimedStream a;
  a.push_back(quantizedReport(0, 10'000'000, 10'000'000));
  a.push_back(quantizedReport(1, 10'400'000, 10'500'000));
  TimedStream b = a;

  const auto plain = makeReplayStream(std::move(a));
  auto budgeted = makeReplayStreamBudgeted(std::move(b), nullptr);
  ASSERT_TRUE(budgeted.hasValue());
  EXPECT_EQ(plain->wire, (*budgeted)->wire);
  EXPECT_EQ(plain->releaseS, (*budgeted)->releaseS);
}

}  // namespace
}  // namespace tagspin::capture
