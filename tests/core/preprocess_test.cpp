#include "core/preprocess.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "geom/angles.hpp"
#include "ingest_stream.hpp"
#include "rf/constants.hpp"

namespace tagspin::core {
namespace {

rfid::TagReport makeReport(uint32_t tag, double t, double phase,
                           double rssi = -50.0) {
  rfid::TagReport r;
  r.epc = rfid::Epc::forSimulatedTag(tag);
  r.timestampS = t;
  r.phaseRad = phase;
  r.rssiDbm = rssi;
  r.channelIndex = 2;
  r.frequencyHz = rf::mhz(921.125);
  return r;
}

TEST(ExtractSnapshots, FiltersByEpcAndSorts) {
  rfid::ReportStream reports;
  reports.push_back(makeReport(1, 2.0, 0.5));
  reports.push_back(makeReport(2, 0.5, 1.0));
  reports.push_back(makeReport(1, 1.0, 1.5));

  const auto snaps =
      extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_DOUBLE_EQ(snaps[0].timeS, 1.0);
  EXPECT_DOUBLE_EQ(snaps[1].timeS, 2.0);
  EXPECT_DOUBLE_EQ(snaps[0].phaseRad, 1.5);
  EXPECT_NEAR(snaps[0].lambdaM, rf::wavelength(rf::mhz(921.125)), 1e-9);
  EXPECT_EQ(snaps[0].channel, 2);
}

TEST(ExtractSnapshots, WrapsPhases) {
  rfid::ReportStream reports;
  reports.push_back(makeReport(1, 0.0, 7.0));  // > 2*pi
  const auto snaps =
      extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
  EXPECT_LT(snaps[0].phaseRad, 2.0 * 3.14159266);
  EXPECT_GE(snaps[0].phaseRad, 0.0);
}

TEST(ExtractSnapshots, DropsWeakReads) {
  rfid::ReportStream reports;
  reports.push_back(makeReport(1, 0.0, 1.0, -95.0));  // below default floor
  reports.push_back(makeReport(1, 1.0, 1.0, -60.0));
  const auto snaps =
      extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].timeS, 1.0);
}

TEST(ExtractSnapshots, ThrowsWhenNoneUsable) {
  rfid::ReportStream reports;
  reports.push_back(makeReport(2, 0.0, 1.0));
  EXPECT_THROW(extractSnapshots(reports, rfid::Epc::forSimulatedTag(1)),
               std::invalid_argument);
  EXPECT_THROW(extractSnapshots({}, rfid::Epc::forSimulatedTag(1)),
               std::invalid_argument);
}

TEST(ExtractSnapshots, SubsamplesEvenly) {
  rfid::ReportStream reports;
  for (int i = 0; i < 1000; ++i) {
    reports.push_back(makeReport(1, i * 0.01, 0.5));
  }
  PreprocessConfig config;
  config.maxSnapshots = 100;
  const auto snaps =
      extractSnapshots(reports, rfid::Epc::forSimulatedTag(1), config);
  ASSERT_EQ(snaps.size(), 100u);
  // Coverage spans the full duration, not just a prefix.
  EXPECT_LT(snaps.front().timeS, 0.2);
  EXPECT_GT(snaps.back().timeS, 9.5);
}

TEST(ExtractSnapshots, UnlimitedWhenZero) {
  rfid::ReportStream reports;
  for (int i = 0; i < 50; ++i) reports.push_back(makeReport(1, i * 0.1, 0.5));
  PreprocessConfig config;
  config.maxSnapshots = 0;
  EXPECT_EQ(
      extractSnapshots(reports, rfid::Epc::forSimulatedTag(1), config).size(),
      50u);
}

TEST(SmoothedPhases, UnwrapsSawtooth) {
  std::vector<Snapshot> snaps;
  for (int i = 0; i < 50; ++i) {
    Snapshot s;
    s.timeS = i * 0.1;
    s.phaseRad = geom::wrapTwoPi(0.5 * i);
    snaps.push_back(s);
  }
  const auto smoothed = smoothedPhases(snaps);
  for (size_t i = 1; i < smoothed.size(); ++i) {
    EXPECT_NEAR(smoothed[i] - smoothed[i - 1], 0.5, 1e-9);
  }
}

TEST(SamplingDensity, CountsWindowedReads) {
  std::vector<Snapshot> snaps;
  // 10 reads in the first second, 2 in the next.
  for (int i = 0; i < 10; ++i) {
    Snapshot s;
    s.timeS = 0.1 * i;
    snaps.push_back(s);
  }
  for (int i = 0; i < 2; ++i) {
    Snapshot s;
    s.timeS = 1.2 + 0.4 * i;
    snaps.push_back(s);
  }
  const auto density = samplingDensity(snaps, 0.5);
  ASSERT_EQ(density.size(), snaps.size());
  EXPECT_GT(density[5], density[11] * 2.0);
}

TEST(SamplingDensity, EdgeCases) {
  EXPECT_TRUE(samplingDensity({}, 1.0).empty());
  std::vector<Snapshot> one(1);
  EXPECT_EQ(samplingDensity(one, 0.0)[0], 0.0);  // degenerate window
}

// --- robust extraction (extractSnapshotsRobust) ---

rfid::ReportStream rampStream(uint32_t tag, size_t count) {
  rfid::ReportStream reports;
  for (size_t i = 0; i < count; ++i) {
    reports.push_back(makeReport(tag, 0.05 * static_cast<double>(i),
                                 1.0 + 0.002 * static_cast<double>(i)));
  }
  return reports;
}

TEST(ExtractSnapshotsRobust, BitIdenticalToStrictOnCleanStream) {
  const rfid::ReportStream reports = rampStream(1, 200);
  const auto strict = extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      reports, rfid::Epc::forSimulatedTag(1), {}, &repairs);
  ASSERT_TRUE(robust);
  ASSERT_EQ(robust->size(), strict.size());
  for (size_t i = 0; i < strict.size(); ++i) {
    EXPECT_EQ((*robust)[i].timeS, strict[i].timeS);
    EXPECT_EQ((*robust)[i].phaseRad, strict[i].phaseRad);
    EXPECT_EQ((*robust)[i].lambdaM, strict[i].lambdaM);
  }
  EXPECT_EQ(repairs.duplicatesRemoved, 0u);
  EXPECT_EQ(repairs.timestampOutliersDropped, 0u);
  EXPECT_EQ(repairs.phaseOutliersDropped, 0u);
}

TEST(ExtractSnapshotsRobust, RemovesExactDuplicates) {
  rfid::ReportStream reports = rampStream(1, 100);
  // Retransmit every 10th report (same timestamp, phase, channel).
  rfid::ReportStream withDups;
  size_t inserted = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    withDups.push_back(reports[i]);
    if (i % 10 == 0) {
      withDups.push_back(reports[i]);
      ++inserted;
    }
  }
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      withDups, rfid::Epc::forSimulatedTag(1), {}, &repairs);
  ASSERT_TRUE(robust);
  EXPECT_EQ(repairs.duplicatesRemoved, inserted);
  EXPECT_EQ(robust->size(), reports.size());
  // The survivors are exactly the originals.
  const auto strict = extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
  for (size_t i = 0; i < strict.size(); ++i) {
    EXPECT_EQ((*robust)[i].timeS, strict[i].timeS);
    EXPECT_EQ((*robust)[i].phaseRad, strict[i].phaseRad);
  }
}

TEST(ExtractSnapshotsRobust, DropsIsolatedTimestampGlitch) {
  rfid::ReportStream reports = rampStream(1, 100);  // 0..4.95 s, 50 ms steps
  reports.push_back(makeReport(1, 1000.0, 1.1));    // clock glitch
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      reports, rfid::Epc::forSimulatedTag(1), {}, &repairs);
  ASSERT_TRUE(robust);
  EXPECT_EQ(repairs.timestampOutliersDropped, 1u);
  EXPECT_EQ(robust->size(), 100u);
  EXPECT_LT(robust->back().timeS, 5.0);
}

TEST(ExtractSnapshotsRobust, HampelDropsPhaseBurst) {
  rfid::ReportStream reports = rampStream(1, 100);
  reports[50].phaseRad = reports[50].phaseRad + 2.5;  // interference burst
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      reports, rfid::Epc::forSimulatedTag(1), {}, &repairs);
  ASSERT_TRUE(robust);
  EXPECT_GE(repairs.phaseOutliersDropped, 1u);
  for (const Snapshot& s : *robust) {
    EXPECT_LT(std::abs(s.phaseRad - 1.1), 0.5);  // the burst is gone
  }
}

TEST(ExtractSnapshotsRobust, HampelSurvivesWrapBoundary) {
  // Phases hugging the 0/2*pi seam must not be flagged as outliers by a
  // naive linear median (the filter is circular).
  rfid::ReportStream reports;
  for (size_t i = 0; i < 100; ++i) {
    const double phase = (i % 2 == 0) ? 0.02 : 2.0 * geom::kPi - 0.02;
    reports.push_back(makeReport(1, 0.05 * static_cast<double>(i), phase));
  }
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      reports, rfid::Epc::forSimulatedTag(1), {}, &repairs);
  ASSERT_TRUE(robust);
  EXPECT_EQ(repairs.phaseOutliersDropped, 0u);
  EXPECT_EQ(robust->size(), 100u);
}

TEST(ExtractSnapshotsRobust, NoReportsNamesEpcAndStreamSize) {
  const rfid::ReportStream reports = rampStream(2, 7);
  const auto robust =
      extractSnapshotsRobust(reports, rfid::Epc::forSimulatedTag(1));
  ASSERT_FALSE(robust);
  EXPECT_EQ(robust.error().code, ErrorCode::kNoReports);
  EXPECT_NE(robust.error().message.find(
                rfid::Epc::forSimulatedTag(1).toHex()),
            std::string::npos)
      << robust.error().message;
  EXPECT_NE(robust.error().message.find("7 reports"), std::string::npos)
      << robust.error().message;
  // The strict path's exception carries the same context.
  try {
    extractSnapshots(reports, rfid::Epc::forSimulatedTag(1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("7 reports"), std::string::npos)
        << e.what();
  }
}

TEST(ExtractSnapshotsRobust, StagesCanBeDisabled) {
  rfid::ReportStream reports = rampStream(1, 60);
  reports.push_back(reports.back());               // duplicate
  reports.push_back(makeReport(1, 500.0, 1.0));    // glitch
  PreprocessConfig off;
  off.repair = false;
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(
      reports, rfid::Epc::forSimulatedTag(1), off, &repairs);
  ASSERT_TRUE(robust);
  EXPECT_EQ(robust->size(), 62u);  // nothing was repaired
  EXPECT_EQ(repairs.duplicatesRemoved, 0u);
  EXPECT_EQ(repairs.timestampOutliersDropped, 0u);
  EXPECT_EQ(repairs.phaseOutliersDropped, 0u);
}

TEST(ExtractSnapshotsRobust, DropsNonFiniteReportsBeforeSorting) {
  // A NaN timestamp would break the sort's ordering contract; a NaN phase or
  // frequency would poison the rig's spectrum.  Both paths drop such
  // reports; the robust one counts them.
  const rfid::ReportStream clean = rampStream(1, 80);
  rfid::ReportStream dirty = clean;
  dirty.insert(dirty.begin() + 10, makeReport(1, std::nan(""), 1.0));
  dirty.insert(dirty.begin() + 30, makeReport(1, 1.3, std::nan("")));
  dirty.insert(dirty.begin() + 50, makeReport(1, HUGE_VAL, 1.0));
  rfid::TagReport noFrequency = makeReport(1, 2.1, 1.0);
  noFrequency.frequencyHz = std::nan("");
  dirty.push_back(noFrequency);
  const rfid::Epc epc = rfid::Epc::forSimulatedTag(1);
  RepairStats repairs;
  const auto robust = extractSnapshotsRobust(dirty, epc, {}, &repairs);
  const auto want = extractSnapshotsRobust(clean, epc);
  ASSERT_TRUE(robust);
  ASSERT_TRUE(want);
  EXPECT_EQ(repairs.nonFiniteDropped, 4u);
  const auto strict = extractSnapshots(dirty, epc);
  ASSERT_EQ(robust->size(), want->size());
  ASSERT_EQ(strict.size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*robust)[i].timeS, (*want)[i].timeS);
    EXPECT_EQ((*robust)[i].phaseRad, (*want)[i].phaseRad);
    EXPECT_EQ(strict[i].timeS, (*want)[i].timeS);
    EXPECT_EQ(strict[i].phaseRad, (*want)[i].phaseRad);
  }
}

// --- metamorphic properties of extractSnapshotsRobust ---
//
// Oracles that need no simulator truth: transformations of the report
// stream whose effect on the output is known exactly.  Each holds bit for
// bit on an ingest-shaped faulted stream (duplicates, reorders, clock
// glitches) in which any two reports with the same timestamp are identical,
// so no reordering can change which of two equal-time reads the sort puts
// first.  The injected glitches jump at most 0.5 s and land among other
// reads, so a few reads are also moved hundreds of seconds out, where the
// timestamp stage drops them.

const testing::IngestStream& metamorphicStream() {
  static const testing::IngestStream stream = [] {
    testing::IngestStream s = testing::makeIngestStream(4);
    const size_t n = s.reports.size();
    for (size_t k = 0; k < 6; ++k) {
      rfid::TagReport far = s.reports[(2 * k + 1) * n / 13];
      far.timestampS += 300.0 + 10.0 * static_cast<double>(k);
      s.reports.push_back(far);
    }
    return s;
  }();
  return stream;
}

bool sameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool sameReport(const rfid::TagReport& a, const rfid::TagReport& b) {
  return a.epc == b.epc && sameBits(a.timestampS, b.timestampS) &&
         sameBits(a.phaseRad, b.phaseRad) && sameBits(a.rssiDbm, b.rssiDbm) &&
         a.channelIndex == b.channelIndex &&
         sameBits(a.frequencyHz, b.frequencyHz) &&
         a.antennaPort == b.antennaPort;
}

void expectSameExtraction(const rfid::ReportStream& reports,
                          const rfid::ReportStream& transformed,
                          const rfid::Epc& epc) {
  // No subsampling: the whole repaired sequence is compared.
  RepairStats want;
  RepairStats got;
  const auto base =
      extractSnapshotsRobust(reports, epc, {.maxSnapshots = 0}, &want);
  const auto out =
      extractSnapshotsRobust(transformed, epc, {.maxSnapshots = 0}, &got);
  ASSERT_TRUE(base);
  ASSERT_TRUE(out);
  EXPECT_TRUE(testing::sameSnapshots(*out, *base));
  EXPECT_EQ(got.nonFiniteDropped, want.nonFiniteDropped);
  EXPECT_EQ(got.duplicatesRemoved, want.duplicatesRemoved);
  EXPECT_EQ(got.timestampOutliersDropped, want.timestampOutliersDropped);
  EXPECT_EQ(got.phaseOutliersDropped, want.phaseOutliersDropped);
}

TEST(ExtractSnapshotsRobustMetamorphic, EqualTimestampsMeanIdenticalReports) {
  // The premise of the order properties below, and a stream that exercises
  // every repair stage.
  rfid::ReportStream byTime = metamorphicStream().reports;
  std::stable_sort(byTime.begin(), byTime.end(),
                   [](const rfid::TagReport& a, const rfid::TagReport& b) {
                     return a.timestampS < b.timestampS;
                   });
  size_t ties = 0;
  for (size_t i = 1; i < byTime.size(); ++i) {
    if (byTime[i].timestampS != byTime[i - 1].timestampS) continue;
    ++ties;
    ASSERT_TRUE(sameReport(byTime[i], byTime[i - 1])) << i;
  }
  EXPECT_GT(ties, 0u);
  RepairStats repairs;
  for (const rfid::Epc& epc : metamorphicStream().rigEpcs) {
    ASSERT_TRUE(extractSnapshotsRobust(metamorphicStream().reports, epc, {},
                                       &repairs));
  }
  EXPECT_GT(repairs.duplicatesRemoved, 0u);
  EXPECT_GT(repairs.timestampOutliersDropped, 0u);
  EXPECT_GT(repairs.phaseOutliersDropped, 0u);
}

TEST(ExtractSnapshotsRobustMetamorphic, ShufflingOrReversingChangesNothing) {
  const testing::IngestStream& stream = metamorphicStream();
  rfid::ReportStream shuffled = stream.reports;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(29));
  const rfid::ReportStream reversed(stream.reports.rbegin(),
                                    stream.reports.rend());
  for (const rfid::Epc& epc : stream.rigEpcs) {
    SCOPED_TRACE(epc.toHex());
    expectSameExtraction(stream.reports, shuffled, epc);
    expectSameExtraction(stream.reports, reversed, epc);
  }
}

TEST(ExtractSnapshotsRobustMetamorphic, AppendedCopiesAreCountedDuplicates) {
  // Every report twice: the output is unchanged, and the dedup stage removes
  // one more copy of each usable report of the EPC.
  const testing::IngestStream& stream = metamorphicStream();
  rfid::ReportStream doubled = stream.reports;
  doubled.insert(doubled.end(), stream.reports.begin(), stream.reports.end());
  for (const rfid::Epc& epc : stream.rigEpcs) {
    SCOPED_TRACE(epc.toHex());
    RepairStats once;
    RepairStats twice;
    const auto base = extractSnapshotsRobust(stream.reports, epc,
                                             {.maxSnapshots = 0}, &once);
    const auto out =
        extractSnapshotsRobust(doubled, epc, {.maxSnapshots = 0}, &twice);
    ASSERT_TRUE(base);
    ASSERT_TRUE(out);
    EXPECT_TRUE(testing::sameSnapshots(*out, *base));
    const size_t usable =
        extractSnapshots(stream.reports, epc, {.maxSnapshots = 0}).size();
    EXPECT_EQ(once.nonFiniteDropped, 0u);
    EXPECT_EQ(twice.nonFiniteDropped, 0u);
    EXPECT_EQ(twice.duplicatesRemoved, once.duplicatesRemoved + usable);
    EXPECT_EQ(twice.timestampOutliersDropped, once.timestampOutliersDropped);
    EXPECT_EQ(twice.phaseOutliersDropped, once.phaseOutliersDropped);
  }
}

TEST(ExtractSnapshotsRobustMetamorphic, OtherEpcsReportsChangeNothing) {
  // A rig's reports alone, interleaved with the other rigs' as the reader
  // delivered them, and after all of the other rigs' reports.
  const testing::IngestStream& stream = metamorphicStream();
  for (const rfid::Epc& epc : stream.rigEpcs) {
    SCOPED_TRACE(epc.toHex());
    const rfid::ReportStream alone = rfid::filterByEpc(stream.reports, epc);
    rfid::ReportStream othersFirst;
    for (const rfid::TagReport& r : stream.reports) {
      if (!(r.epc == epc)) othersFirst.push_back(r);
    }
    othersFirst.insert(othersFirst.end(), alone.begin(), alone.end());
    ASSERT_LT(alone.size(), stream.reports.size());
    expectSameExtraction(alone, stream.reports, epc);
    expectSameExtraction(alone, othersFirst, epc);
  }
}

}  // namespace
}  // namespace tagspin::core
