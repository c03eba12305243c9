#include "core/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

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

dsp::RectGrid spatialSearchGrid(const SearchConfig& search) {
  // The profile depends on gamma only through cos(gamma), so it is exactly
  // mirror-symmetric about the horizontal plane (the paper's two symmetric
  // peaks); searching the non-negative half suffices.
  return {0.0, geom::kPi / 2.0, search.azimuthGridPoints / 2,
          std::max<size_t>(search.polarGridPoints / 2, 2)};
}

SpatialEstimate estimateSpatial(const PowerProfile& profile,
                                const SearchConfig& search) {
  return estimateSpatialOn(activeKernelIsa(), profile, search);
}

SpatialEstimate estimateSpatialOn(KernelIsa isa, const PowerProfile& profile,
                                  const SearchConfig& search) {
  const dsp::RectGrid grid = spatialSearchGrid(search);
  const auto rows = [&](std::span<const double> phis, double gamma,
                        std::span<double> out) {
    profile.evaluateGridOn(isa, phis, std::cos(gamma), out);
  };
  const std::vector<double> angles = dsp::circularGrid(grid.nx);
  std::vector<double> scales(grid.ny);
  for (size_t j = 0; j < grid.ny; ++j) scales[j] = std::cos(grid.y(j));
  std::vector<double> values(grid.nx * grid.ny);
  std::vector<double> bounds(values.size());
  profile.scanRectOn(isa, angles, scales, values, bounds);
  SpatialEstimate est;
  const dsp::GridMax2D cell =
      dsp::screenRect(rows, grid, values, bounds, &est.recheckedCells);
  const dsp::GridMax2D best =
      dsp::refineRect(rows, grid, cell, search.refineRounds);
  est.azimuth = best.x;
  est.polar = std::abs(best.y);
  est.value = best.value;
  return est;
}

}  // namespace tagspin::core
