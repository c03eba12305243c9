// Differential tests of the Hampel phase filter: core::hampelFilterPhases
// (sorting network, two-run MAD, geom::circularDiff without fmod for
// |d| < 2*pi) against the nth_element/fmod body it replaced
// (reference_preprocess.hpp).  Kept snapshots must be bit-identical and
// the drop counts equal, on ingest-shaped streams and on hostile windows;
// the network and the MAD are also checked on their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/hampel_window.hpp"
#include "core/kernel_math.hpp"
#include "core/preprocess.hpp"
#include "geom/angles.hpp"
#include "ingest_stream.hpp"
#include "reference_preprocess.hpp"

namespace tagspin::core {
namespace {

/// hampelFilterPhases and the oracle keep the same snapshots, bit for bit,
/// and count the same drops (added to `drops`, if set).
void expectMatchesReference(const std::vector<Snapshot>& snaps,
                            size_t* drops = nullptr) {
  size_t dropped = 0;
  size_t wantDropped = 0;
  const std::vector<Snapshot> kept = hampelFilterPhases(snaps, &dropped);
  const std::vector<Snapshot> want =
      testing::referenceHampelFilterPhases(snaps, &wantDropped);
  if (drops) *drops += dropped;
  EXPECT_EQ(dropped, wantDropped);
  EXPECT_TRUE(testing::sameSnapshots(kept, want));
}

std::vector<Snapshot> withPhases(const std::vector<double>& phases) {
  std::vector<Snapshot> snaps(phases.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    snaps[i].timeS = 0.01 * static_cast<double>(i);
    snaps[i].phaseRad = phases[i];
    snaps[i].lambdaM = 0.325;
  }
  return snaps;
}

TEST(HampelFilter, MatchesReferenceOnIngestStreams) {
  // Every rig of three seeded ingest-shaped streams, sorted but unrepaired:
  // duplicates and glitched reads stay in the filter's input.
  size_t reads = 0;
  size_t drops = 0;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const testing::IngestStream stream = testing::makeIngestStream(seed);
    ASSERT_EQ(stream.rigEpcs.size(), 3u);
    for (const rfid::Epc& epc : stream.rigEpcs) {
      const std::vector<Snapshot> snaps =
          extractSnapshots(stream.reports, epc, {.maxSnapshots = 0});
      SCOPED_TRACE(epc.toHex());
      expectMatchesReference(snaps, &drops);
      reads += snaps.size();
    }
  }
  EXPECT_GT(reads, 100000u);
  EXPECT_GT(drops, 0u);  // the streams exercise the drop branch
}

TEST(HampelFilter, RobustExtractionMatchesReferenceStage) {
  // On the streams before their faults the dedup and timestamp stages
  // remove nothing, so the Hampel stage's input is the strict extraction,
  // and the robust result must be the oracle's filter of it, counts
  // included.
  for (const uint64_t seed : {1u, 2u}) {
    const testing::IngestStream stream = testing::makeIngestStream(seed);
    for (const rfid::Epc& epc : stream.rigEpcs) {
      SCOPED_TRACE(epc.toHex());
      RepairStats stats;
      const auto robust = extractSnapshotsRobust(
          stream.clean, epc, {.maxSnapshots = 0}, &stats);
      ASSERT_TRUE(robust);
      ASSERT_EQ(stats.duplicatesRemoved, 0u);
      ASSERT_EQ(stats.timestampOutliersDropped, 0u);
      size_t wantDropped = 0;
      const std::vector<Snapshot> want = testing::referenceHampelFilterPhases(
          extractSnapshots(stream.clean, epc, {.maxSnapshots = 0}),
          &wantDropped);
      EXPECT_EQ(stats.phaseOutliersDropped, wantDropped);
      EXPECT_TRUE(testing::sameSnapshots(*robust, want));
    }
  }
}

TEST(HampelFilter, MatchesReferenceOnSeamPhases) {
  // Phases of exactly 0, pi and 2*pi (geom::wrapTwoPi can return 2*pi),
  // and one ulp either side of pi: deviations of exactly +-pi and +-2*pi.
  const double pi = geom::kPi;
  const std::array<double, 5> seam = {0.0, pi, geom::kTwoPi,
                                      std::nextafter(pi, 0.0),
                                      std::nextafter(pi, 4.0)};
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<double> phases(24 + rng() % 40);
    for (double& p : phases) p = seam[rng() % seam.size()];
    expectMatchesReference(withPhases(phases));
  }
}

TEST(HampelFilter, MatchesReferenceWhenMadIsZero) {
  // All-equal phases, and all-equal with single and paired spikes: the MAD
  // is 0 and the 0.05 rad floor decides alone.
  for (const double phase : {0.0, 1.0, geom::kPi, geom::kTwoPi}) {
    std::vector<double> phases(40, phase);
    expectMatchesReference(withPhases(phases));
    for (const double spike : {0.04, 0.05, 0.06, 1.0, -2.0}) {
      phases[20] = phase + spike;
      expectMatchesReference(withPhases(phases));
      phases[21] = phase + spike;
      expectMatchesReference(withPhases(phases));
      phases[20] = phases[21] = phase;
    }
  }
}

TEST(HampelFilter, MatchesReferenceAcrossTheZeroTwoPiSeam) {
  // Runs of 1 to 6 reads alternating either side of the 0/2*pi seam.
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> offset(0.0, 0.2);
  for (size_t run = 1; run <= 6; ++run) {
    std::vector<double> phases;
    for (size_t i = 0; i < 120; ++i) {
      const bool low = (i / run) % 2 == 0;
      phases.push_back(low ? offset(rng) : geom::kTwoPi - offset(rng));
    }
    expectMatchesReference(withPhases(phases));
  }
}

TEST(HampelFilter, MatchesReferenceOnUnwrappedPhases) {
  // Public callers may pass phases that were never wrapped: deviations up
  // to 80 rad take the fmod fallback.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> anywhere(-40.0, 40.0);
  std::normal_distribution<double> step(0.0, 0.3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> scattered(64);
    for (double& p : scattered) p = anywhere(rng);
    expectMatchesReference(withPhases(scattered));
    std::vector<double> walk(64);
    double p = anywhere(rng);
    for (double& w : walk) w = p = std::clamp(p + step(rng), -40.0, 40.0);
    expectMatchesReference(withPhases(walk));
  }
}

TEST(HampelFilter, MatchesReferenceAtEverySmallSize) {
  // Below 11 reads every read is an edge; at 11 and 12 one and two windows
  // are symmetric.
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> phase(0.0, geom::kTwoPi);
  for (const size_t n : {0u, 1u, 10u, 11u, 12u}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<double> phases(n);
      for (double& p : phases) p = phase(rng);
      if (n > 6 && trial % 2 == 0) phases[5] = phases[4] + 2.5;  // a spike
      expectMatchesReference(withPhases(phases));
    }
  }
}

TEST(HampelFilter, DeviationOfMinusPiWrapsToPlusPi) {
  // Decoded 12-bit LLRP phases include exactly 0 and exactly pi
  // (code / 4096 * 2*pi), so a read at pi with neighbours at 0 gives
  // d = -pi.  geom::wrapToPi maps it to +pi, as the filter must;
  // kernel::wrapPhase maps it to -pi, which is why the filter does not use
  // the kernel's wrap.  Five neighbours at 0 and five at 2*pi - 0.01
  // around a read at pi: with +pi the ten deviations cluster at the top,
  // the median is pi with a MAD of 0.01, and the read is dropped; with -pi
  // they split across the seam, the MAD is ~2*pi, and it would be kept.
  EXPECT_EQ(geom::wrapToPi(-geom::kPi), geom::kPi);
  EXPECT_EQ(kernel::wrapPhase(-geom::kPi), -geom::kPi);
  const double high = geom::kTwoPi - 0.01;
  const std::vector<Snapshot> snaps = withPhases(
      {0.0, high, 0.0, high, 0.0, geom::kPi, high, 0.0, high, 0.0, high});
  size_t dropped = 0;
  const std::vector<Snapshot> kept = hampelFilterPhases(snaps, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(kept.size(), 10u);
  EXPECT_EQ(kept[5].phaseRad, high);
  expectMatchesReference(snaps);
}

TEST(HampelFilter, SortTenSortsEveryZeroOneInput) {
  // The 0/1 principle: a comparator network sorts every input if and only
  // if it sorts all 2^10 inputs of zeros and ones.
  for (uint32_t bits = 0; bits < 1024; ++bits) {
    std::array<double, 10> v{};
    for (size_t k = 0; k < 10; ++k) v[k] = (bits >> k) & 1u;
    hampel::sortTen(v);
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end())) << bits;
    ASSERT_EQ(std::count(v.begin(), v.end(), 1.0),
              std::popcount(bits)) << bits;
  }
}

TEST(HampelFilter, MadOfSortedTenMatchesNthElement) {
  // Random 10-sets, with and without ties: the two-run MAD is the 6th
  // smallest absolute deviation from the median, as nth_element finds it.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> wide(-4.0, 4.0);
  for (int trial = 0; trial < 20000; ++trial) {
    std::array<double, 10> v{};
    for (double& x : v) {
      x = trial % 2 == 0 ? wide(rng) : static_cast<double>(rng() % 4);
    }
    std::array<double, 10> sorted = v;
    hampel::sortTen(sorted);
    std::array<double, 10> want = v;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(sorted, want) << trial;
    std::vector<double> devs(v.begin(), v.end());
    std::nth_element(devs.begin(), devs.begin() + 5, devs.end());
    const double med = devs[5];
    ASSERT_EQ(sorted[5], med) << trial;
    std::vector<double> absdevs;
    for (double d : devs) absdevs.push_back(std::abs(d - med));
    std::nth_element(absdevs.begin(), absdevs.begin() + 5, absdevs.end());
    ASSERT_EQ(std::bit_cast<uint64_t>(hampel::madOfSortedTen(sorted)),
              std::bit_cast<uint64_t>(absdevs[5]))
        << trial;
  }
}

}  // namespace
}  // namespace tagspin::core
