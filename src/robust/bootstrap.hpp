// Bootstrap confidence regions for ray-intersection fixes.
//
// A point estimate without an uncertainty statement is half an answer: the
// ROADMAP's production north-star needs every fix to say how wrong it
// might be.  The locator resamples each rig's snapshots into subsample
// bearing estimates; the *deviations* of those half-sample bearings around
// the full-sample bearing are (by the half-sampling identity: with
// theta_full ~= (theta_half + theta_other_half)/2, the deviation
// theta_half - theta_full = (theta_half - theta_other_half)/2 has variance
// ~= Var[theta_full]) an empirical draw from the full-sample estimator's
// own error distribution -- no rescaling needed.  Each bootstrap replicate
// perturbs every ray's bearing by a resampled deviation (and, with >= 3
// rays, resamples the ray set itself), re-intersects, and the cloud of
// replicate fixes yields a Gaussian-approximated confidence ellipse.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/vec.hpp"

namespace tagspin::robust {

struct ConfidenceEllipse {
  geom::Vec2 center;
  double semiMajorM = 0.0;
  double semiMinorM = 0.0;
  /// Orientation of the major axis, radians from +x.
  double orientationRad = 0.0;
  /// Coverage target the axes were scaled for (e.g. 0.90).
  double confidenceLevel = 0.0;

  double areaM2() const;
  bool contains(const geom::Vec2& p) const;
};

/// One ray's bootstrap inputs: origin, full-sample bearing, and the
/// deviations (radians, wrapped) of its subsample bearing re-estimates
/// from that full-sample bearing.
struct BearingSamples {
  geom::Vec2 origin;
  double bearingRad = 0.0;
  std::vector<double> deviationsRad;
};

/// The ellipse comes from 160 replicates, scaled for 90% coverage; with
/// fewer than 24 non-degenerate replicate intersections there is none.
struct BootstrapConfig {
  uint64_t seed = 0xB0075;
  /// Also resample the ray set with replacement (pairs bootstrap over
  /// rays).  Off by default: with a handful of rays most replicates draw
  /// the same rig twice, and two same-origin rays with different bearing
  /// deviations intersect at the rig itself -- the replicate cloud gets
  /// anchored to the rig line and the covariance grows well beyond the
  /// bearing-noise level the deviations are calibrated for.  That
  /// conservatism is exactly what the locator's field path wants (each
  /// rig's multipath bias is invisible to half-sample deviations, so the
  /// calibrated region under-covers in real scenes -- see
  /// RobustEstimationConfig::pairsBootstrap); leave it off when the
  /// deviations genuinely capture the whole error, as in calibration
  /// studies.
  bool resampleRays = false;
};

/// Confidence ellipse centred on `fix` from bootstrap re-intersections.
/// Empty when fewer than 2 rays, no ray has deviation samples, or too few
/// replicates converge.
std::optional<ConfidenceEllipse> bootstrapEllipse(
    std::span<const BearingSamples> rays, const geom::Vec2& fix,
    const BootstrapConfig& config = {});

}  // namespace tagspin::robust
