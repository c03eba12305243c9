#include "core/preprocess.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/hampel_window.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {

namespace {

/// Timestamp repair: a read is isolated when both neighbours are further
/// than max(floor, factor * median step) away.
constexpr double kTimestampGapFactor = 50.0;
constexpr double kTimestampGapFloorS = 0.5;

/// Hampel filter: total window size (odd), threshold in 1.4826*MAD units,
/// and deviation floor in radians.
constexpr size_t kHampelWindow = 11;
constexpr double kHampelThreshold = 6.0;
constexpr double kHampelFloorRad = 0.05;

/// Collect + RSSI-gate + sort: the shared head of the strict and robust
/// extraction paths.  `matched` counts reports of the EPC before gating;
/// `nonFinite` (if set) counts those dropped for a non-finite timestamp,
/// phase or frequency -- dropped before the sort, whose ordering a NaN
/// time would break, and before one NaN can poison a rig's spectrum.
std::vector<Snapshot> collectSorted(const rfid::ReportStream& reports,
                                    const rfid::Epc& epc, size_t* matched,
                                    size_t* nonFinite) {
  std::vector<Snapshot> snaps;
  size_t seen = 0;
  for (const rfid::TagReport& r : reports) {
    if (!(r.epc == epc)) continue;
    ++seen;
    if (r.rssiDbm < kMinRssiDbm) continue;
    if (!std::isfinite(r.timestampS) || !std::isfinite(r.phaseRad) ||
        !std::isfinite(r.frequencyHz)) {
      if (nonFinite) ++*nonFinite;
      continue;
    }
    // A report without a carrier frequency has no wavelength; treat it as
    // unusable rather than letting wavelengthM() throw mid-extraction.
    if (r.frequencyHz <= 0.0) continue;
    Snapshot s;
    s.timeS = r.timestampS;
    s.phaseRad = geom::wrapTwoPi(r.phaseRad);
    s.lambdaM = r.wavelengthM();
    s.channel = r.channelIndex;
    s.rssiDbm = r.rssiDbm;
    snaps.push_back(s);
  }
  if (matched) *matched = seen;
  std::sort(snaps.begin(), snaps.end(),
            [](const Snapshot& a, const Snapshot& b) {
              return a.timeS < b.timeS;
            });
  return snaps;
}

std::string noReportsMessage(const rfid::Epc& epc, size_t streamSize,
                             size_t matched) {
  return "no usable reports for EPC " + epc.toHex() + " in a stream of " +
         std::to_string(streamSize) + " reports (" + std::to_string(matched) +
         " matched the EPC" +
         (matched > 0 ? ", all below the RSSI floor, non-finite or without "
                        "a carrier frequency)"
                      : ")");
}

void subsample(std::vector<Snapshot>& snaps, size_t maxSnapshots) {
  if (maxSnapshots == 0 || snaps.size() <= maxSnapshots) return;
  std::vector<Snapshot> kept;
  kept.reserve(maxSnapshots);
  const double step = static_cast<double>(snaps.size()) /
                      static_cast<double>(maxSnapshots);
  for (size_t i = 0; i < maxSnapshots; ++i) {
    kept.push_back(snaps[static_cast<size_t>(i * step)]);
  }
  snaps = std::move(kept);
}

/// Drop reads temporally isolated from both neighbours -- the signature of
/// a glitched timestamp that sorting has relocated into no-man's-land.
/// Legitimate gaps (dropout windows) separate two dense blocks: the reads at
/// the block edges stay close to their inward neighbour and survive.
std::vector<Snapshot> dropTimeOutliers(std::vector<Snapshot> snaps,
                                       size_t* dropped) {
  if (snaps.size() < 3) return snaps;
  std::vector<double> steps;
  steps.reserve(snaps.size() - 1);
  for (size_t i = 1; i < snaps.size(); ++i) {
    steps.push_back(snaps[i].timeS - snaps[i - 1].timeS);
  }
  std::nth_element(steps.begin(), steps.begin() + steps.size() / 2,
                   steps.end());
  const double medianStep = steps[steps.size() / 2];
  const double limit =
      std::max(kTimestampGapFloorS, kTimestampGapFactor * medianStep);

  std::vector<Snapshot> kept;
  kept.reserve(snaps.size());
  for (size_t i = 0; i < snaps.size(); ++i) {
    const double before =
        i > 0 ? snaps[i].timeS - snaps[i - 1].timeS
              : std::numeric_limits<double>::infinity();
    const double after =
        i + 1 < snaps.size() ? snaps[i + 1].timeS - snaps[i].timeS
                             : std::numeric_limits<double>::infinity();
    if (std::min(before, after) > limit) {
      if (dropped) ++*dropped;
      continue;
    }
    kept.push_back(snaps[i]);
  }
  return kept;
}

}  // namespace

std::vector<Snapshot> extractSnapshots(const rfid::ReportStream& reports,
                                       const rfid::Epc& epc,
                                       const PreprocessConfig& config) {
  size_t matched = 0;
  std::vector<Snapshot> snaps =
      collectSorted(reports, epc, &matched, nullptr);
  if (snaps.empty()) {
    throw std::invalid_argument(
        "extractSnapshots: " + noReportsMessage(epc, reports.size(), matched));
  }
  subsample(snaps, config.maxSnapshots);
  return snaps;
}

std::vector<Snapshot> hampelFilterPhases(const std::vector<Snapshot>& snaps,
                                         size_t* dropped) {
  if (snaps.size() < kHampelWindow) return snaps;  // every read is an edge
  constexpr size_t half = kHampelWindow / 2;
  std::vector<Snapshot> kept;
  kept.reserve(snaps.size());
  for (size_t i = 0; i < snaps.size(); ++i) {
    // Edge samples only have a one-sided neighbourhood, where a genuine
    // phase slope shifts the median deviation off zero while the MAD stays
    // small -- a false rejection.  Without a symmetric window the test
    // cannot tell slope from outlier, so edge samples are always kept.
    if (i < half || i + half + 1 > snaps.size()) {
      kept.push_back(snaps[i]);
      continue;
    }
    std::array<double, kHampelWindow - 1> devs{};
    for (size_t k = 0; k < half; ++k) {
      devs[k] = geom::circularDiff(snaps[i - half + k].phaseRad,
                                   snaps[i].phaseRad);
      devs[half + k] = geom::circularDiff(snaps[i + 1 + k].phaseRad,
                                          snaps[i].phaseRad);
    }
    // Median deviation of the neighbourhood from this sample: for an inlier
    // it sits near 0; for an outlier it equals (minus) the outlier's error.
    hampel::sortTen(devs);
    const double med = devs[half];
    const double madSigma = 1.4826 * hampel::madOfSortedTen(devs);
    const double limit =
        std::max(kHampelFloorRad, kHampelThreshold * madSigma);
    if (std::abs(med) > limit) {
      if (dropped) ++*dropped;
      continue;
    }
    kept.push_back(snaps[i]);
  }
  return kept;
}

Result<std::vector<Snapshot>> extractSnapshotsRobust(
    const rfid::ReportStream& reports, const rfid::Epc& epc,
    const PreprocessConfig& config, RepairStats* repairs) {
  RepairStats local;
  RepairStats* st = repairs ? repairs : &local;
  size_t matched = 0;
  std::vector<Snapshot> snaps =
      collectSorted(reports, epc, &matched, &st->nonFiniteDropped);
  if (snaps.empty()) {
    return Error{ErrorCode::kNoReports,
                 "extractSnapshotsRobust: " +
                     noReportsMessage(epc, reports.size(), matched)};
  }

  if (config.repair) {
    std::vector<Snapshot> unique;
    unique.reserve(snaps.size());
    for (const Snapshot& s : snaps) {
      if (!unique.empty() && unique.back().timeS == s.timeS &&
          unique.back().phaseRad == s.phaseRad &&
          unique.back().channel == s.channel) {
        ++st->duplicatesRemoved;
        continue;
      }
      unique.push_back(s);
    }
    // Free the sorted copy before the next stage allocates its output.
    snaps = std::move(unique);
    snaps = dropTimeOutliers(std::move(snaps), &st->timestampOutliersDropped);
    snaps = hampelFilterPhases(snaps, &st->phaseOutliersDropped);
  }
  if (snaps.empty()) {
    return Error{ErrorCode::kNoReports,
                 "extractSnapshotsRobust: every report of EPC " +
                     epc.toHex() + " was rejected by the repair stages"};
  }
  subsample(snaps, config.maxSnapshots);
  return snaps;
}

std::vector<double> smoothedPhases(const std::vector<Snapshot>& snaps) {
  std::vector<double> wrapped;
  wrapped.reserve(snaps.size());
  for (const Snapshot& s : snaps) wrapped.push_back(s.phaseRad);
  return geom::smoothPhasesPaperRule(wrapped);
}

std::vector<double> samplingDensity(const std::vector<Snapshot>& snaps,
                                    double windowS) {
  std::vector<double> density(snaps.size(), 0.0);
  if (snaps.empty() || windowS <= 0.0) return density;
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < snaps.size(); ++i) {
    const double t = snaps[i].timeS;
    while (lo < snaps.size() && snaps[lo].timeS < t - windowS / 2.0) ++lo;
    while (hi < snaps.size() && snaps[hi].timeS <= t + windowS / 2.0) ++hi;
    density[i] = static_cast<double>(hi - lo) / windowS;
  }
  return density;
}

}  // namespace tagspin::core
