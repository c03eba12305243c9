// Reference implementation of the Hampel/MAD phase filter: the body
// core::hampelFilterPhases had before its sorting-network rewrite, kept
// verbatim as the test oracle -- a wrap through fmod for every deviation,
// two std::nth_element over heap vectors per sample.  Test-only; the
// differential tests in hampel_filter_test.cpp hold hampelFilterPhases to
// it, and perf_profiles' BM_HampelFilter/1 times it.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/snapshot.hpp"
#include "geom/angles.hpp"

namespace tagspin::core::testing {

/// geom::circularDiff as the old body called it: geom::wrapToPi over an
/// unconditional fmod.  geom::wrapTwoPi skips the fmod when |a| < 2*pi;
/// the oracle keeps it, so the differential tests also hold that shortcut
/// to the fmod results.
inline double referenceCircularDiff(double to, double from) {
  double r = std::fmod(to - from, geom::kTwoPi);
  if (r < 0.0) r += geom::kTwoPi;
  if (r > geom::kPi) r -= geom::kTwoPi;
  return r;
}

inline std::vector<Snapshot> referenceHampelFilterPhases(
    const std::vector<Snapshot>& snaps, size_t* dropped = nullptr) {
  constexpr size_t kHampelWindow = 11;
  constexpr double kHampelThreshold = 6.0;
  constexpr double kHampelFloorRad = 0.05;
  if (snaps.size() < kHampelWindow) return snaps;  // every read is an edge
  constexpr size_t half = kHampelWindow / 2;
  std::vector<Snapshot> kept;
  kept.reserve(snaps.size());
  std::vector<double> devs;
  std::vector<double> absdevs;
  for (size_t i = 0; i < snaps.size(); ++i) {
    // Edge samples only have a one-sided neighbourhood, where a genuine
    // phase slope shifts the median deviation off zero while the MAD stays
    // small -- a false rejection.  Without a symmetric window the test
    // cannot tell slope from outlier, so edge samples are always kept.
    if (i < half || i + half + 1 > snaps.size()) {
      kept.push_back(snaps[i]);
      continue;
    }
    const size_t lo = i - half;
    const size_t hi = i + half + 1;
    devs.clear();
    for (size_t j = lo; j < hi; ++j) {
      if (j == i) continue;
      devs.push_back(
          referenceCircularDiff(snaps[j].phaseRad, snaps[i].phaseRad));
    }
    // Median deviation of the neighbourhood from this sample: for an inlier
    // it sits near 0; for an outlier it equals (minus) the outlier's error.
    std::nth_element(devs.begin(), devs.begin() + devs.size() / 2, devs.end());
    const double med = devs[devs.size() / 2];
    absdevs.clear();
    for (double d : devs) absdevs.push_back(std::abs(d - med));
    std::nth_element(absdevs.begin(), absdevs.begin() + absdevs.size() / 2,
                     absdevs.end());
    const double madSigma = 1.4826 * absdevs[absdevs.size() / 2];
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

}  // namespace tagspin::core::testing
