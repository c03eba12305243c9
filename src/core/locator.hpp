// Reader localization from multiple spinning-tag angle spectra
// (paper section V).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/errors.hpp"
#include "core/orientation_calibration.hpp"
#include "core/quality.hpp"
#include "core/snapshot.hpp"
#include "core/spectrum.hpp"
#include "geom/ray.hpp"
#include "obs/metrics.hpp"
#include "robust/bootstrap.hpp"
#include "robust/consensus.hpp"
#include "robust/spectrum_diag.hpp"

namespace tagspin::core {

/// A rig's observations for one localization attempt.  `orientation` is the
/// phase-orientation model of the specific tag on this rig (identity when
/// no calibration prelude was run for it).
struct RigObservation {
  RigSpec rig;
  std::vector<Snapshot> snapshots;
  OrientationModel orientation;
};

/// Per-rig direction estimate produced on the way to a fix.
struct RigDirection {
  double azimuth = 0.0;
  double polar = 0.0;       // |gamma|; 0 in pure 2D runs
  double peakValue = 0.0;   // profile value at the peak (confidence)
};

/// Robust-estimation audit trail attached to every fix.  All per-ray
/// vectors are parallel to `fix.directions` (the rigs that produced the
/// fix, in input order).
struct EstimationDiagnostics {
  /// Spin self-diagnosis per rig (empty when diagnostics are disabled).
  std::vector<robust::SpinDiagnostics> spins;
  /// True when the fix came from consensus voting + IRLS rather than the
  /// plain (two-ray / least-squares) intersection.
  bool consensusUsed = false;
  /// Fraction of rigs whose chosen ray passes within the inlier threshold
  /// of the fix; 1.0 on the non-consensus path.
  double inlierFraction = 1.0;
  std::vector<bool> inliers;  // empty unless consensusUsed
  /// Ray parameter of the fix along each rig's (chosen) bearing ray;
  /// negative = the fix sits behind that rig, a physically impossible
  /// bearing that indicates a mirror/ghost peak.
  std::vector<double> rayT;
  size_t behindOriginRays = 0;
  /// Bootstrap confidence region (set when RobustEstimationConfig::
  /// bootstrap is enabled and enough replicates converged).
  std::optional<robust::ConfidenceEllipse> ellipse;
};

struct Fix2D {
  geom::Vec2 position;
  std::vector<RigDirection> directions;
  /// RMS perpendicular distance of the fix to the rig rays -- a consistency
  /// diagnostic (meaningful for >= 3 rigs; ~0 for exactly 2).
  double residualM = 0.0;
  EstimationDiagnostics estimation;
};

struct Fix3D {
  geom::Vec3 position;
  /// The mirror candidate (z negated) when ZResolution::kBoth is selected.
  std::optional<geom::Vec3> mirrorCandidate;
  std::vector<RigDirection> directions;
  double residualM = 0.0;
  EstimationDiagnostics estimation;
};

/// How much the resilient path had to give up to produce a fix.
enum class FixGrade {
  kFull,      // every offered rig was healthy and used
  kDegraded,  // >= 2 healthy rigs, but unhealthy ones were dropped
  kMinimal,   // fewer than 2 healthy rigs; best-effort 2-rig fallback
};
const char* fixGradeName(FixGrade grade);

/// Degradation audit trail attached to a resilient fix.  Indices refer to
/// the observation span passed to tryLocate2D/3D; `fix.directions` is
/// parallel to `usedRigs`, not to the input.
struct ResilienceReport {
  FixGrade grade = FixGrade::kFull;
  /// fixConfidence() of the used rigs, scaled down by the grade (x1 full,
  /// x0.7 degraded, x0.4 minimal) -- the explicit confidence downgrade.
  double confidence = 0.0;
  std::vector<RigHealth> rigHealth;  // parallel to the input observations
  std::vector<size_t> usedRigs;
  std::vector<size_t> droppedRigs;
  std::vector<std::string> droppedReasons;  // parallel to droppedRigs
};

struct ResilientFix2D {
  Fix2D fix;
  ResilienceReport report;
};

struct ResilientFix3D {
  Fix3D fix;
  ResilienceReport report;
};

class Locator {
 public:
  explicit Locator(LocatorConfig config = {});

  const LocatorConfig& config() const { return config_; }

  /// Wire (or unwire, with null) the locator's telemetry: locator.*
  /// counters (attempts, grades, fallbacks, dropped rigs) and the
  /// span.profile_eval / span.spectrum_search / span.fix2d / span.fix3d
  /// latency histograms.  Handles resolve once here; the estimation hot
  /// path never touches the registry's lock.
  void setMetrics(obs::MetricsRegistry* registry);

  /// The locate entry points.  Assess every offered rig's health, drop rigs
  /// below `thresholds`, fall back to the best-scoring pair when fewer than
  /// two healthy rigs remain, run the calibration passes over the used rigs
  /// and intersect their bearings.  A 2D fix comes from >= 2 horizontal rigs
  /// (Eqn. 9 for two rigs via the robust equivalent; consensus or least
  /// squares for more); the 3D fix adds |z| from the polar angles (Eqn.
  /// 13a/13b balanced by peak confidence), its sign from
  /// config().zResolution.  Bad input comes back as an ErrorCode, never as
  /// an exception: a rig whose profile cannot be built is dropped with the
  /// constructor's message as its reason.  Only an allocation failure
  /// propagates.  At kKeepEveryRig every rig whose profile can be built is
  /// used -- the paper's estimator.  tryLocate2D builds each rig's pass-0
  /// spectrum once and both the health check and the fix read it, whenever
  /// the two would build the same profile (DESIGN.md section 4.4).
  Result<ResilientFix2D> tryLocate2D(
      std::span<const RigObservation> observations,
      const RigHealthThresholds& thresholds = {}) const;
  Result<ResilientFix3D> tryLocate3D(
      std::span<const RigObservation> observations,
      const RigHealthThresholds& thresholds = {}) const;

  /// Future-work extension: use a *vertically* spinning rig to resolve the
  /// +-z ambiguity -- evaluates the vertical rig's profile at the exact
  /// direction each candidate predicts and keeps the stronger one.
  geom::Vec3 disambiguateZ(const RigObservation& verticalRig,
                           const geom::Vec3& candidateA,
                           const geom::Vec3& candidateB) const;

 private:
  struct Instruments {
    obs::Counter* fix2dAttempts = nullptr;
    obs::Counter* fix2dOk = nullptr;
    obs::Counter* fix3dAttempts = nullptr;
    obs::Counter* fix3dOk = nullptr;
    obs::Counter* fallbackMinimal = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* confidenceDowngrades = nullptr;
    obs::Counter* rigsDropped = nullptr;
    // locator.spatial_rechecked_cells: grid cells the 3D searches
    // re-evaluated in double after the float scan.
    obs::Counter* spatialRechecks = nullptr;
    obs::Counter* quarantinedSpins = nullptr;   // robust.quarantined_spins
    obs::Counter* suspectSpins = nullptr;       // robust.suspect_spins
    obs::Counter* behindOriginRays = nullptr;   // robust.behind_origin_rays
    obs::Counter* consensusFixes = nullptr;     // robust.consensus_fixes
    obs::Counter* bootstrapRuns = nullptr;      // robust.bootstrap_runs
    obs::Gauge* inlierFraction = nullptr;       // robust.inlier_fraction
    obs::Gauge* ellipseAreaCm2 = nullptr;       // robust.ellipse_area_cm2
    obs::Histogram* profileEval = nullptr;     // span.profile_eval
    obs::Histogram* spectrumSearch = nullptr;  // span.spectrum_search
    obs::Histogram* fix2d = nullptr;           // span.fix2d
    obs::Histogram* fix3d = nullptr;           // span.fix3d
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  /// A rig's bearing with its robust-estimation context: every candidate
  /// direction the spectrum supports (main first) plus the spin verdict.
  struct RigBearing {
    std::vector<robust::BearingCandidate> candidates;
    robust::SpinDiagnostics spin;
  };

  /// One rig's calibration pass: the profile, the search's result on it,
  /// and the direction it gives.  In 2D `spectrum` holds the search's grid
  /// and refined peak; the 3D search scans a rectangle and leaves it empty.
  struct RigPass {
    PowerProfile profile;
    RigSpectrum spectrum;
    RigDirection direction;
  };

  /// Profile build (timed under span.profile_eval) and search (under
  /// span.spectrum_search) of one rig's snapshots for one pass.
  RigPass searchRig(std::span<const Snapshot> snaps, const RigSpec& rig,
                    const ProfileConfig& cfg, bool threeD) const;
  /// Spin diagnosis + candidate extraction for a searched pass (no-op
  /// single-candidate bearing when diagnostics are disabled).  2D reads the
  /// pass's grid; 3D sweeps the azimuth row at the found polar angle.
  RigBearing diagnoseBearing(const RigPass& pass, bool threeD) const;
  /// The one locate body behind tryLocate2D/3D: rig health and selection,
  /// the calibration passes with their intersection, the bootstrap, the
  /// confidence and the locator.fix{2d,3d}_* counters.  Pass 0 runs on the
  /// raw snapshots, then orientationIterations passes on snapshots corrected
  /// at the running fix when some used rig carries an orientation model;
  /// each pass searches and diagnoses every used rig, then intersects the
  /// bearings.  The position is the xy fix; tryLocate3D adds the height.
  Result<ResilientFix2D> locate(std::span<const RigObservation> observations,
                                const RigHealthThresholds& thresholds,
                                bool threeD) const;
  /// Health of every offered rig.  With `pass0` set, each rig's pass-0
  /// spectrum is searched here, health reads its grid and the pass is
  /// appended to `pass0` (nullopt for a rig with no profile); otherwise
  /// health sweeps its own grid of search.azimuthGridPoints points.
  std::vector<RigHealth> assessHealth(
      std::span<const RigObservation> observations,
      std::vector<std::optional<RigPass>>* pass0) const;
  /// Intersect the (possibly multi-candidate) bearings: consensus voting
  /// for >= 3 rays when enabled, exact two-ray / detailed least squares
  /// otherwise.  Updates `directions` to the chosen candidates and fills
  /// the per-ray fields of `estimation`.  nullopt on degenerate
  /// (all-parallel) geometry.
  std::optional<geom::Vec2> intersectBearings(
      std::span<const RigObservation> observations,
      std::span<const RigBearing> bearings, std::span<RigDirection> directions,
      EstimationDiagnostics& estimation, double* residualOut) const;
  /// Bootstrap confidence ellipse around a finished xy fix.
  std::optional<robust::ConfidenceEllipse> bootstrapEllipse2D(
      std::span<const RigObservation> observations,
      std::span<const RigDirection> directions,
      const geom::Vec2& position) const;
  void noteResilientOutcome(const ResilienceReport& report) const;
  void noteEstimationOutcome(const EstimationDiagnostics& estimation) const;

  LocatorConfig config_;
  Instruments obs_;
};

}  // namespace tagspin::core
