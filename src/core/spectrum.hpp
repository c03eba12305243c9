// Angle-spectrum estimation: searching the power profile for its peak.
//
// 2D: the azimuth of the maximum of the profile over [0, 2*pi).
// 3D: the (azimuth, polar) pair maximising the profile; since cos(gamma) is
// even, the spectrum is exactly mirror-symmetric in gamma and the search
// reports the non-negative-polar peak (the caller resolves the sign with
// scene knowledge, paper section V-B).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/power_profile.hpp"
#include "dsp/grid.hpp"

namespace tagspin::core {

struct AzimuthEstimate {
  double azimuth = 0.0;  // [0, 2*pi)
  double value = 0.0;    // profile value at the peak
};

struct SpatialEstimate {
  double azimuth = 0.0;
  double polar = 0.0;  // reported as |gamma| in [0, pi/2]
  double value = 0.0;
  /// Grid cells the search evaluated in double after the float scan
  /// (DESIGN.md section 11): the cells whose scan interval could hold the
  /// grid maximum.
  size_t recheckedCells = 0;
};

/// One rig's azimuth spectrum for one calibration pass: the profile sampled
/// on dsp::circularGrid(search.azimuthGridPoints) -- the grid the azimuth
/// search scanned -- and the refined peak the search found.  The health
/// check, the spin diagnostics and secondary-candidate extraction read
/// `grid` instead of sweeping the profile again (DESIGN.md section 4.4).
struct RigSpectrum {
  std::vector<double> grid;
  AzimuthEstimate peak;
};

/// The azimuth search, keeping the grid it scanned.
RigSpectrum searchAzimuth(const PowerProfile& profile,
                          const SearchConfig& search);

/// searchAzimuth's peak.
AzimuthEstimate estimateAzimuth(const PowerProfile& profile,
                                const SearchConfig& search);

/// Same search performed coarse-to-fine; identical result for well-formed
/// profiles at a fraction of the evaluations (ablated in perf_profiles).
AzimuthEstimate estimateAzimuthCoarseFine(const PowerProfile& profile,
                                          const SearchConfig& search);

/// The 3D search's grid: search.azimuthGridPoints / 2 azimuths on
/// [0, 2*pi) by max(search.polarGridPoints / 2, 2) polar rows on
/// [0, pi/2], the non-negative half of the polar range.
dsp::RectGrid spatialSearchGrid(const SearchConfig& search);

/// The 3D search: the (azimuth, polar >= 0) grid maximum of the profile,
/// refined -- dsp::maximizeRect's result on evaluateGrid, bit for bit.  The
/// grid is scanned in float (PowerProfile::scanRect) and only the cells
/// whose bounded scan value could be the maximum are evaluated in double
/// (dsp::screenRect) before the refinement.
SpatialEstimate estimateSpatial(const PowerProfile& profile,
                                const SearchConfig& search);

/// estimateSpatial with every evaluation at an explicit kernel level (the
/// seam of the cross-level tests and benchmarks); throws
/// std::invalid_argument if !kernelIsaSupported(isa).
SpatialEstimate estimateSpatialOn(KernelIsa isa, const PowerProfile& profile,
                                  const SearchConfig& search);

/// Locally refine an azimuth around `seedRad` within +-halfSpanRad (dense
/// local grid plus the same halving zoom estimateAzimuth finishes with).
/// Used to polish *secondary* candidate peaks -- a grid-resolution ghost
/// candidate that wins the consensus vote should enter the intersection
/// with the same precision as a full-search main peak.
AzimuthEstimate refineAzimuthNear(const PowerProfile& profile, double seedRad,
                                  double halfSpanRad, int refineRounds,
                                  double gamma = 0.0);

}  // namespace tagspin::core
