// Fix-quality diagnostics.
//
// A production deployment needs to know *whether to trust* a fix, not just
// its value.  These metrics are computed from the angle spectrum and the
// ray geometry:
//  * peak sharpness (half-power width) -- narrow peaks mean a clean SAR
//    inversion;
//  * peak-to-second-peak ratio -- a strong secondary lobe signals
//    multipath or an interference-dominated trace;
//  * geometric dilution of precision (GDOP) -- how the rig/reader geometry
//    amplifies per-rig angle errors into position error (readers near the
//    rig baseline's extension are poorly conditioned, as the paper's
//    center-distance sweep shows).
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "core/power_profile.hpp"
#include "core/snapshot.hpp"
#include "geom/ray.hpp"
#include "robust/spectrum_diag.hpp"

namespace tagspin::core {

struct SpectrumQuality {
  double peakValue = 0.0;        // profile value at the main peak, [0, 1]
  double halfPowerWidthDeg = 0.0;
  /// mainPeak / secondPeak; large is good.  Infinity when no second local
  /// maximum exists.
  double peakRatio = 0.0;
};

/// Quality of a single rig's azimuth spectrum, sampled on
/// dsp::circularGrid(samples.size()) -- e.g. a RigSpectrum's grid, or
/// PowerProfile::sampleAzimuth.
SpectrumQuality assessSpectrumSamples(std::span<const double> samples);

/// Horizontal GDOP of a set of bearing rays at a candidate fix: the
/// RMS position error per radian of (independent, unit-variance) bearing
/// error.  Computed from the least-squares sensitivity of the intersection.
/// Returns +infinity for degenerate (parallel-ray) geometry.
double bearingGdop(std::span<const geom::Ray2> rays,
                   const geom::Vec2& fix);

/// Composite confidence in [0, 1]: high when all spectra are sharp and
/// unimodal and the geometry is well conditioned.  Heuristic, monotone in
/// each ingredient; intended for thresholding ("re-run the calibration"),
/// not as a calibrated probability.
double fixConfidence(std::span<const SpectrumQuality> spectra, double gdop);

/// Per-rig ingestion health for one localization attempt: how much of the
/// spin the surviving snapshots actually cover, and how clean the resulting
/// spectrum is.  Used by the graceful-degradation locator to decide which
/// rigs are trustworthy enough to contribute to a fix.
struct RigHealth {
  size_t snapshotCount = 0;
  double durationS = 0.0;
  /// Fraction of the disk-angle circle [0, 2*pi) covered by snapshots
  /// (occupied fraction of a 24-bin histogram of the kinematics' disk
  /// angle).  A rig silent for 30% of the spin scores ~0.7.
  double arcCoverage = 0.0;
  /// Quality of the azimuth spectrum; defaulted when no profile could be
  /// built (fewer than 2 snapshots, or see profileError).
  SpectrumQuality spectrum;
  /// Spin self-diagnosis (verdict, candidate peaks, ghost score); verdict
  /// stays kAccept when diagnostics were not requested or no profile could
  /// be built.
  robust::SpinDiagnostics spin;
  /// Why the PowerProfile constructor rejected these snapshots (e.g. a
  /// non-positive rig radius or a snapshot without a wavelength); empty when
  /// the profile was built or fewer than 2 snapshots left nothing to build.
  /// A rig with a profile error is never healthy nor usable.
  std::string profileError;
};

struct RigHealthThresholds {
  size_t minSnapshots = 16;
  double minArcCoverage = 0.30;
  /// A spectrum flatter than this peak value carries no direction
  /// information (profiles are normalised to [0, 1]).
  double minPeakValue = 0.05;
  /// Treat a kQuarantine spin verdict as unhealthy (the graceful-
  /// degradation locator then drops the rig or requests a re-spin).
  bool rejectQuarantined = true;
};

/// Thresholds that keep every rig whose profile can be built: the paper's
/// estimator uses every heard rig (eval::buildPaperServer).
inline constexpr RigHealthThresholds kKeepEveryRig{
    .minSnapshots = 2,
    .minArcCoverage = 0.0,
    .minPeakValue = 0.0,
    .rejectQuarantined = false};

/// Assess a rig's snapshots against an already-built profile of them.
/// `grid` is that profile sampled on dsp::circularGrid(grid.size()) -- the
/// RigSpectrum the azimuth search kept -- and is read instead of sweeping
/// the profile again.  `diagnostics` controls whether the spin
/// self-diagnosis runs (null: skip, verdict stays kAccept); its ghost score
/// is taken at the grid's argmax.
RigHealth assessRigHealth(std::span<const Snapshot> snapshots,
                          const RigKinematics& kinematics,
                          const PowerProfile& profile,
                          std::span<const double> grid,
                          const robust::SpinDiagnosticsConfig* diagnostics =
                              nullptr);

/// Same, building the profile from `profile` and sampling it on a
/// `gridPoints`-point grid.  Never throws; degenerate inputs simply score
/// zero everywhere, and a profile the constructor rejects leaves its
/// message in RigHealth::profileError.
RigHealth assessRigHealth(std::span<const Snapshot> snapshots,
                          const RigKinematics& kinematics,
                          const ProfileConfig& profile = {},
                          const robust::SpinDiagnosticsConfig* diagnostics =
                              nullptr,
                          size_t gridPoints = 720);

/// Every threshold holds and the profile could be built: a rig with a
/// profileError is never healthy, whatever the thresholds.
bool isHealthy(const RigHealth& health, const RigHealthThresholds& thresholds);

}  // namespace tagspin::core
