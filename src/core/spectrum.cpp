#include "core/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {
namespace {

/// The profile at polar angle gamma as a batch evaluator over azimuths.
auto azimuthSweep(const PowerProfile& profile, double gamma = 0.0) {
  return [&profile, scale = std::cos(gamma)](std::span<const double> phis,
                                             std::span<double> out) {
    profile.evaluateGrid(phis, scale, out);
  };
}

}  // namespace

RigSpectrum searchAzimuth(const PowerProfile& profile,
                          const SearchConfig& search) {
  dsp::CircularMax max = dsp::maximizeCircular(
      azimuthSweep(profile), search.azimuthGridPoints, search.refineRounds);
  return {std::move(max.grid), {max.best.x, max.best.value}};
}

AzimuthEstimate estimateAzimuth(const PowerProfile& profile,
                                const SearchConfig& search) {
  return searchAzimuth(profile, search).peak;
}

AzimuthEstimate estimateAzimuthCoarseFine(const PowerProfile& profile,
                                          const SearchConfig& search) {
  const auto best = dsp::maximizeCircularCoarseFine(
      azimuthSweep(profile), search.azimuthGridPoints / 8, 64,
      search.refineRounds);
  return {best.x, best.value};
}

AzimuthEstimate refineAzimuthNear(const PowerProfile& profile, double seedRad,
                                  double halfSpanRad, int refineRounds,
                                  double gamma) {
  const auto best = dsp::maximizeNear(azimuthSweep(profile, gamma), seedRad,
                                      halfSpanRad, /*gridHalf=*/8,
                                      refineRounds);
  return {geom::wrapTwoPi(best.x), best.value};
}

SpatialEstimate estimateSpatial(const PowerProfile& profile,
                                const SearchConfig& search) {
  // The profile depends on gamma only through cos(gamma), so it is exactly
  // mirror-symmetric about the horizontal plane (the paper's two symmetric
  // peaks); searching the non-negative half suffices.
  const double lo = std::max(search.polarMin, 0.0);
  const double hi = std::max(search.polarMax, lo);
  const auto best = dsp::maximizeRect(
      [&](std::span<const double> phis, double gamma, std::span<double> out) {
        profile.evaluateGrid(phis, std::cos(gamma), out);
      },
      lo, hi, search.azimuthGridPoints / 2,
      std::max<size_t>(search.polarGridPoints / 2, 2), search.refineRounds);
  return {best.x, std::abs(best.y), best.value};
}

}  // namespace tagspin::core
