// Tuning knobs of the Tagspin algorithms.
#pragma once

#include <cstddef>

#include "robust/consensus.hpp"
#include "robust/spectrum_diag.hpp"

namespace tagspin::core {

enum class ProfileFormula {
  kClassicalP,  // absolute-phase AoA profile, Eqn. 6
  kRelativeQ,   // diversity-free relative profile, Eqn. 7
  kEnhancedR,   // Gaussian-weighted enhanced profile, Defn. 4.1 / 5.1
};

struct ProfileConfig {
  ProfileFormula formula = ProfileFormula::kEnhancedR;
  /// Std-dev of a *single* phase measurement (paper: 0.1 rad).  The pairwise
  /// residual theta_i - theta_0 then has std sqrt(2) * this.
  double phaseNoiseStd = 0.1;
  /// Bandwidth multiplier applied to the Gaussian weight of R(phi):
  /// sigma_w = weightSigmaScale * sqrt(2) * phaseNoiseStd.  The paper's
  /// literal value (scale 1) makes the weight a hard selector; residual
  /// contributions it does not model (orientation, multipath) then bias the
  /// argmax through correlated snapshot selection.  A moderate widening
  /// keeps the weight's job -- suppressing grossly inconsistent snapshots --
  /// while leaving the Gaussian bulk effectively unweighted.  See DESIGN.md.
  double weightSigmaScale = 2.0;
  /// Group snapshots by channel and combine groups non-coherently.  Within a
  /// channel the unknown D/lambda term cancels in relative phases; across
  /// channels it does not, so with hopping enabled this must stay true.
  bool channelCoherent = true;
};

struct SearchConfig {
  size_t azimuthGridPoints = 720;  // 0.5 degree raw grid
  int refineRounds = 6;
  size_t polarGridPoints = 61;     // 3D search over gamma in [-pi/2, pi/2]
};

/// Which half-space the reader is known to occupy; resolves the +-z
/// ambiguity of the 3D solution (paper: "dead space" elimination).
enum class ZResolution {
  kNonNegative,
  kNonPositive,
  kBoth,  // report both candidates
};

/// Adversarial-environment estimation knobs (src/robust/).
struct RobustEstimationConfig {
  /// Diagnose every spin's spectrum (verdicts, candidate peaks, ghost
  /// score).  Off: spins are trusted as before and verdicts stay kAccept.
  bool diagnostics = true;
  /// With >= 3 rays, replace the unweighted least-squares intersection by
  /// consensus voting over candidate peaks plus IRLS refinement.  Clean
  /// spectra reduce to the unweighted solution.
  bool consensus = true;
  /// Bootstrap a 90% confidence ellipse for each fix (8 half-sample
  /// bearing re-estimates per rig, robust::BootstrapConfig's replicates and
  /// seed; off by default, enabled by the serve runtime and benches).
  bool bootstrap = false;
  /// Resample the ray set as well as the bearings (pairs bootstrap).  The
  /// bearing-only scheme is calibrated to estimator noise, but in the
  /// field each rig also carries its own multipath bias, which half-sample
  /// deviations cannot see (both halves share the same reflectors); pairs
  /// resampling folds that between-rig disagreement into the region, at
  /// the cost of conservatism (over-coverage) when the rays are clean.
  bool pairsBootstrap = true;
  robust::SpinDiagnosticsConfig diagnosticsConfig;
  robust::ConsensusConfig consensusConfig;
};

struct LocatorConfig {
  ProfileConfig profile;
  SearchConfig search;
  ZResolution zResolution = ZResolution::kNonNegative;
  /// Iterations of the orientation-calibration loop (estimate direction ->
  /// de-rotate orientation offsets -> re-estimate).  0 disables calibration
  /// even when a model is available.
  int orientationIterations = 2;
  RobustEstimationConfig robust;
};

}  // namespace tagspin::core
