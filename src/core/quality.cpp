#include "core/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "dsp/grid.hpp"
#include "dsp/peaks.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {

SpectrumQuality assessSpectrumSamples(std::span<const double> samples) {
  const size_t gridPoints = samples.size();
  const auto peaks = dsp::findPeaks(samples, /*circular=*/true,
                                    /*minSeparation=*/gridPoints / 36);
  SpectrumQuality q;
  if (peaks.empty()) {
    // Pathologically flat profile.
    q.peakValue = samples.empty() ? 0.0 : samples[dsp::argmax(samples)];
    q.halfPowerWidthDeg = 360.0;
    q.peakRatio = 1.0;
    return q;
  }
  q.peakValue = peaks[0].value;
  q.halfPowerWidthDeg =
      dsp::halfPowerWidth(samples, peaks[0].index, /*circular=*/true) *
      360.0 / static_cast<double>(gridPoints);
  q.peakRatio = peaks.size() > 1
                    ? peaks[0].value / std::max(peaks[1].value, 1e-12)
                    : std::numeric_limits<double>::infinity();
  return q;
}

double bearingGdop(std::span<const geom::Ray2> rays, const geom::Vec2& fix) {
  // Normal equations A p = b with per-ray normals n_i; a bearing error
  // dphi_i displaces ray i's line by D_i * dphi_i at the fix, so
  // Cov(p) = A^{-1} (sum D_i^2 n n^T) A^{-1} for unit-variance errors.
  double a00 = 0.0, a01 = 0.0, a11 = 0.0;
  double b00 = 0.0, b01 = 0.0, b11 = 0.0;
  for (const geom::Ray2& r : rays) {
    const geom::Vec2 d = r.direction();
    const geom::Vec2 n{-d.y, d.x};
    const double dist2 = (fix - r.origin).norm2();
    a00 += n.x * n.x;
    a01 += n.x * n.y;
    a11 += n.y * n.y;
    b00 += dist2 * n.x * n.x;
    b01 += dist2 * n.x * n.y;
    b11 += dist2 * n.y * n.y;
  }
  const double det = a00 * a11 - a01 * a01;
  if (std::abs(det) < 1e-12) {
    return std::numeric_limits<double>::infinity();
  }
  // Ainv = [a11 -a01; -a01 a00] / det;  Cov = Ainv * B * Ainv.
  const double i00 = a11 / det, i01 = -a01 / det, i11 = a00 / det;
  // M = Ainv * B
  const double m00 = i00 * b00 + i01 * b01;
  const double m01 = i00 * b01 + i01 * b11;
  const double m10 = i01 * b00 + i11 * b01;
  const double m11 = i01 * b01 + i11 * b11;
  // Cov = M * Ainv; trace only.
  const double c00 = m00 * i00 + m01 * i01;
  const double c11 = m10 * i01 + m11 * i11;
  const double trace = c00 + c11;
  return trace > 0.0 ? std::sqrt(trace)
                     : std::numeric_limits<double>::infinity();
}

namespace {

/// The part of a rig's health that needs no profile: snapshot count,
/// duration and arc coverage.
RigHealth assessCoverage(std::span<const Snapshot> snapshots,
                         const RigKinematics& kinematics) {
  RigHealth h;
  h.snapshotCount = snapshots.size();
  if (snapshots.empty()) return h;
  double tMin = snapshots.front().timeS;
  double tMax = snapshots.front().timeS;
  constexpr int kBins = 24;
  bool occupied[kBins] = {};
  for (const Snapshot& s : snapshots) {
    tMin = std::min(tMin, s.timeS);
    tMax = std::max(tMax, s.timeS);
    const double a = geom::wrapTwoPi(kinematics.diskAngle(s.timeS));
    int bin = static_cast<int>(a / geom::kTwoPi * kBins);
    bin = std::clamp(bin, 0, kBins - 1);
    occupied[bin] = true;
  }
  h.durationS = tMax - tMin;
  int filled = 0;
  for (bool b : occupied) filled += b ? 1 : 0;
  h.arcCoverage = static_cast<double>(filled) / kBins;
  return h;
}

}  // namespace

RigHealth assessRigHealth(std::span<const Snapshot> snapshots,
                          const RigKinematics& kinematics,
                          const PowerProfile& profile,
                          std::span<const double> grid,
                          const robust::SpinDiagnosticsConfig* diagnostics) {
  RigHealth h = assessCoverage(snapshots, kinematics);
  h.spectrum = assessSpectrumSamples(grid);
  if (diagnostics != nullptr && !grid.empty()) {
    const double peakPhi =
        dsp::circularGridAngle(dsp::argmax(grid), grid.size());
    const double ghost = 1.0 - profile.weightStats(peakPhi).effectiveFraction;
    h.spin = robust::diagnoseSpectrum(grid, ghost, *diagnostics);
  }
  return h;
}

RigHealth assessRigHealth(std::span<const Snapshot> snapshots,
                          const RigKinematics& kinematics,
                          const ProfileConfig& profile,
                          const robust::SpinDiagnosticsConfig* diagnostics,
                          size_t gridPoints) {
  if (snapshots.size() < 2) return assessCoverage(snapshots, kinematics);
  std::optional<PowerProfile> p;
  try {
    p.emplace(snapshots, kinematics, profile);
  } catch (const std::invalid_argument& e) {
    RigHealth h = assessCoverage(snapshots, kinematics);
    h.profileError = e.what();
    return h;
  }
  return assessRigHealth(snapshots, kinematics, *p,
                         p->sampleAzimuth(gridPoints), diagnostics);
}

bool isHealthy(const RigHealth& health,
               const RigHealthThresholds& thresholds) {
  return health.profileError.empty() &&
         health.snapshotCount >= thresholds.minSnapshots &&
         health.arcCoverage >= thresholds.minArcCoverage &&
         health.spectrum.peakValue >= thresholds.minPeakValue &&
         !(thresholds.rejectQuarantined &&
           health.spin.verdict == robust::SpinVerdict::kQuarantine);
}

double fixConfidence(std::span<const SpectrumQuality> spectra, double gdop) {
  if (spectra.empty() || !std::isfinite(gdop)) return 0.0;
  double logAcc = 0.0;
  for (const SpectrumQuality& q : spectra) {
    const double sharp =
        std::clamp(1.0 - q.halfPowerWidthDeg / 90.0, 0.0, 1.0);
    const double unimodal = std::isfinite(q.peakRatio)
                                ? std::clamp((q.peakRatio - 1.0) / 1.5, 0.0,
                                             1.0)
                                : 1.0;
    const double strength = std::clamp(q.peakValue, 0.0, 1.0);
    logAcc += std::log(std::max(sharp * unimodal * strength, 1e-9));
  }
  const double spectral =
      std::exp(logAcc / static_cast<double>(spectra.size()));
  const double geometry = 1.0 / (1.0 + gdop / 10.0);
  return spectral * geometry;
}

}  // namespace tagspin::core
