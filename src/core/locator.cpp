#include "core/locator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/power_profile.hpp"
#include "geom/angles.hpp"
#include "obs/span.hpp"

namespace tagspin::core {

Locator::Locator(LocatorConfig config) : config_(config) {}

Locator::Instruments Locator::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.fix2dAttempts = registry->counter("locator.fix2d_attempts");
  in.fix2dOk = registry->counter("locator.fix2d_ok");
  in.fix3dAttempts = registry->counter("locator.fix3d_attempts");
  in.fix3dOk = registry->counter("locator.fix3d_ok");
  in.fallbackMinimal = registry->counter("locator.fallback_minimal");
  in.degraded = registry->counter("locator.degraded");
  in.confidenceDowngrades = registry->counter("locator.confidence_downgrades");
  in.rigsDropped = registry->counter("locator.rigs_dropped");
  in.spatialRechecks = registry->counter("locator.spatial_rechecked_cells");
  in.quarantinedSpins = registry->counter("robust.quarantined_spins");
  in.suspectSpins = registry->counter("robust.suspect_spins");
  in.behindOriginRays = registry->counter("robust.behind_origin_rays");
  in.consensusFixes = registry->counter("robust.consensus_fixes");
  in.bootstrapRuns = registry->counter("robust.bootstrap_runs");
  in.inlierFraction = registry->gauge("robust.inlier_fraction");
  in.ellipseAreaCm2 = registry->gauge("robust.ellipse_area_cm2");
  in.profileEval = registry->histogram("span.profile_eval");
  in.spectrumSearch = registry->histogram("span.spectrum_search");
  in.fix2d = registry->histogram("span.fix2d");
  in.fix3d = registry->histogram("span.fix3d");
  return in;
}

void Locator::setMetrics(obs::MetricsRegistry* registry) {
  obs_ = Instruments::resolve(registry);
}

Locator::RigPass Locator::searchRig(std::span<const Snapshot> snaps,
                                   const RigSpec& rig,
                                   const ProfileConfig& cfg,
                                   bool threeD) const {
  RigPass pass{[&] {
                 TAGSPIN_SPAN(obs_.profileEval);
                 return PowerProfile(snaps, rig.kinematics, cfg);
               }(),
               {},
               {}};
  TAGSPIN_SPAN(obs_.spectrumSearch);
  if (threeD) {
    const SpatialEstimate est = estimateSpatial(pass.profile, config_.search);
    obs::add(obs_.spatialRechecks, est.recheckedCells);
    pass.direction = {est.azimuth, est.polar, est.value};
  } else {
    pass.spectrum = searchAzimuth(pass.profile, config_.search);
    pass.direction = {pass.spectrum.peak.azimuth, 0.0,
                      pass.spectrum.peak.value};
  }
  return pass;
}

/// Fold one resilient fix's degradation report into the locator.* counters.
void Locator::noteResilientOutcome(const ResilienceReport& report) const {
  if (report.grade == FixGrade::kMinimal) obs::add(obs_.fallbackMinimal);
  if (report.grade == FixGrade::kDegraded) obs::add(obs_.degraded);
  if (report.grade != FixGrade::kFull) obs::add(obs_.confidenceDowngrades);
  obs::add(obs_.rigsDropped, report.droppedRigs.size());
  // Quarantined rigs that selectRigs dropped never reach the passes, so
  // their verdicts are counted here (used rigs are counted per-fix in
  // noteEstimationOutcome).
  for (size_t i : report.droppedRigs) {
    const auto verdict = report.rigHealth[i].spin.verdict;
    if (verdict == robust::SpinVerdict::kQuarantine) {
      obs::add(obs_.quarantinedSpins);
    }
  }
}

void Locator::noteEstimationOutcome(
    const EstimationDiagnostics& estimation) const {
  for (const auto& spin : estimation.spins) {
    if (spin.verdict == robust::SpinVerdict::kSuspect) {
      obs::add(obs_.suspectSpins);
    } else if (spin.verdict == robust::SpinVerdict::kQuarantine) {
      obs::add(obs_.quarantinedSpins);
    }
  }
  obs::add(obs_.behindOriginRays, estimation.behindOriginRays);
  if (estimation.consensusUsed) obs::add(obs_.consensusFixes);
  obs::set(obs_.inlierFraction, estimation.inlierFraction);
}

namespace {

bool calibratesOrientation(const LocatorConfig& config,
                           std::span<const RigObservation> observations) {
  return config.orientationIterations > 0 &&
         std::any_of(observations.begin(), observations.end(),
                     [](const RigObservation& o) {
                       return !o.orientation.isIdentity();
                     });
}

/// The orientation-calibration loop needs a starting azimuth before any
/// correction is available.  The enhanced profile's Gaussian weights assume
/// orientation-free residuals, so the *initial* estimate uses the relative
/// profile Q, which is robust to the (still uncorrected) orientation offset;
/// later iterations switch to the configured formula.
ProfileConfig passZeroConfig(const LocatorConfig& config,
                             std::span<const RigObservation> observations) {
  ProfileConfig cfg = config.profile;
  if (cfg.formula == ProfileFormula::kEnhancedR &&
      calibratesOrientation(config, observations)) {
    cfg.formula = ProfileFormula::kRelativeQ;
  }
  return cfg;
}

}  // namespace

Locator::RigBearing Locator::diagnoseBearing(const RigPass& pass,
                                             bool threeD) const {
  const PowerProfile& profile = pass.profile;
  const double azimuth = pass.direction.azimuth;
  const double gamma = pass.direction.polar;
  RigBearing bearing;
  bearing.candidates.push_back(
      {geom::wrapTwoPi(azimuth), pass.direction.peakValue});
  if (!config_.robust.diagnostics) return bearing;
  // 2D reads the grid the search scanned.  The 3D search's rectangle rows
  // need not include the found gamma, so 3D sweeps that row.
  std::vector<double> row;
  if (threeD) {
    row = profile.sampleAzimuth(config_.search.azimuthGridPoints, gamma);
  }
  const std::span<const double> samples =
      threeD ? std::span<const double>(row) : pass.spectrum.grid;
  const double ghost =
      1.0 - profile.weightStats(azimuth, gamma).effectiveFraction;
  bearing.spin = robust::diagnoseSpectrum(samples, ghost,
                                          config_.robust.diagnosticsConfig);
  // Secondary candidates, each polished from grid resolution to search
  // precision; skip anything that duplicates the refined main peak.
  const double gridStep =
      geom::kTwoPi / static_cast<double>(config_.search.azimuthGridPoints);
  const double minSep =
      gridStep * static_cast<double>(std::max<size_t>(
                     config_.search.azimuthGridPoints /
                         config_.robust.diagnosticsConfig
                             .minPeakSeparationDivisor,
                     1));
  for (size_t c = 1; c < bearing.spin.candidates.size(); ++c) {
    const auto& raw = bearing.spin.candidates[c];
    if (geom::circularDistance(raw.angleRad, azimuth) < minSep) continue;
    const AzimuthEstimate refined = refineAzimuthNear(
        profile, raw.angleRad, gridStep, config_.search.refineRounds, gamma);
    bearing.candidates.push_back({refined.azimuth, refined.value});
  }
  return bearing;
}

std::optional<geom::Vec2> Locator::intersectBearings(
    std::span<const RigObservation> observations,
    std::span<const RigBearing> bearings, std::span<RigDirection> directions,
    EstimationDiagnostics& estimation, double* residualOut) const {
  const size_t n = observations.size();
  // The orientation-calibration loop re-enters here; reset per-ray state.
  estimation.consensusUsed = false;
  estimation.inlierFraction = 1.0;
  estimation.inliers.clear();
  estimation.rayT.clear();
  estimation.behindOriginRays = 0;

  if (config_.robust.consensus && n >= 3) {
    std::vector<robust::BearingObservation> candidates(n);
    for (size_t i = 0; i < n; ++i) {
      candidates[i].origin = observations[i].rig.center.xy();
      candidates[i].candidates = bearings[i].candidates;
    }
    const auto consensus = robust::consensusIntersection(
        candidates, config_.robust.consensusConfig);
    if (consensus) {
      for (size_t i = 0; i < n; ++i) {
        const int c = consensus->chosen[i];
        if (c >= 0) {
          const auto& cand = bearings[i].candidates[static_cast<size_t>(c)];
          directions[i].azimuth = cand.angleRad;
          directions[i].peakValue = cand.value;
        }
      }
      estimation.consensusUsed = true;
      estimation.inlierFraction = consensus->inlierFraction;
      estimation.inliers = consensus->inlier;
      estimation.rayT = consensus->rayT;
      estimation.behindOriginRays = consensus->behindOrigin;
      if (residualOut) *residualOut = consensus->residualM;
      return consensus->position;
    }
    // No two candidate rays support each other (e.g. a near-parallel
    // bundle); fall back to the classic main-peak intersection below.
  }

  std::vector<geom::Ray2> rays;
  rays.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rays.push_back({observations[i].rig.center.xy(), directions[i].azimuth});
  }
  if (rays.size() == 2) {
    // Two rigs: the exact intersection (the robust form of Eqn. 9; the
    // literal tan()-based intersectEqn9 is *never* on this path -- it goes
    // blind near the tan poles, see the regression test).
    const auto hit = geom::intersectRays(rays[0], rays[1]);
    if (hit) {
      estimation.rayT = {hit->t1, hit->t2};
      estimation.behindOriginRays =
          static_cast<size_t>(hit->t1 < 0.0) +
          static_cast<size_t>(hit->t2 < 0.0);
      if (residualOut) *residualOut = geom::rmsResidual(rays, hit->point);
      return hit->point;
    }
  }
  const auto solved = geom::leastSquaresIntersectionDetailed(rays);
  if (!solved) return std::nullopt;
  estimation.rayT = solved->rayT;
  estimation.behindOriginRays = solved->behindOrigin;
  if (residualOut) *residualOut = geom::rmsResidual(rays, solved->point);
  return solved->point;
}

std::optional<robust::ConfidenceEllipse> Locator::bootstrapEllipse2D(
    std::span<const RigObservation> observations,
    std::span<const RigDirection> directions,
    const geom::Vec2& position) const {
  obs::add(obs_.bootstrapRuns);
  // Half-sample bearing re-estimates per rig feeding the bootstrap.
  constexpr int kBearingSubsamples = 8;
  robust::BootstrapConfig bc;
  bc.resampleRays = config_.robust.pairsBootstrap;
  const geom::Vec3 est3{position.x, position.y,
                        observations[0].rig.center.z};
  std::vector<robust::BearingSamples> rays(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    const RigObservation& obs = observations[i];
    rays[i].origin = obs.rig.center.xy();
    rays[i].bearingRad = directions[i].azimuth;
    // Subsample the same (orientation-corrected) snapshots the final
    // bearing came from, so deviations measure estimator noise and not the
    // uncorrected orientation offset.
    const bool calibrate =
        !obs.orientation.isIdentity() && config_.orientationIterations > 0;
    std::vector<Snapshot> corrected;
    if (calibrate) {
      corrected = calibrateOrientationAtPosition(obs.snapshots, obs.rig,
                                                 obs.orientation, est3);
    }
    const std::vector<Snapshot>& snaps =
        calibrate ? corrected : obs.snapshots;
    if (snaps.size() < 16) continue;  // half-samples would be meaningless
    std::mt19937_64 rng(bc.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    std::vector<size_t> idx(snaps.size());
    std::iota(idx.begin(), idx.end(), size_t{0});
    const size_t half = snaps.size() / 2;
    std::vector<Snapshot> subset;
    subset.reserve(half);
    for (int k = 0; k < kBearingSubsamples; ++k) {
      std::shuffle(idx.begin(), idx.end(), rng);
      std::sort(idx.begin(), idx.begin() + static_cast<long>(half));
      subset.clear();
      for (size_t j = 0; j < half; ++j) subset.push_back(snaps[idx[j]]);
      const PowerProfile profile(subset, obs.rig.kinematics,
                                 config_.profile);
      const AzimuthEstimate est =
          estimateAzimuthCoarseFine(profile, config_.search);
      rays[i].deviationsRad.push_back(
          geom::wrapToPi(est.azimuth - rays[i].bearingRad));
    }
  }
  const auto ellipse = robust::bootstrapEllipse(rays, position, bc);
  if (ellipse) obs::set(obs_.ellipseAreaCm2, ellipse->areaM2() * 1e4);
  return ellipse;
}

const char* fixGradeName(FixGrade grade) {
  switch (grade) {
    case FixGrade::kFull: return "full";
    case FixGrade::kDegraded: return "degraded";
    case FixGrade::kMinimal: return "minimal";
  }
  return "unknown";
}

namespace {

/// Rank a marginal rig for the 2-rig fallback: coverage and spectrum
/// strength dominate, snapshot count saturates quickly.
double fallbackScore(const RigHealth& h) {
  const double count =
      std::min(static_cast<double>(h.snapshotCount), 64.0) / 64.0;
  return h.arcCoverage * std::max(h.spectrum.peakValue, 1e-6) * count;
}

std::string unhealthyReason(const RigHealth& h,
                            const RigHealthThresholds& t) {
  if (!h.profileError.empty()) return h.profileError;
  std::string why;
  if (h.snapshotCount < t.minSnapshots) {
    why += "snapshots " + std::to_string(h.snapshotCount) + " < " +
           std::to_string(t.minSnapshots);
  }
  if (h.arcCoverage < t.minArcCoverage) {
    if (!why.empty()) why += "; ";
    why += "arc coverage " + std::to_string(h.arcCoverage) + " < " +
           std::to_string(t.minArcCoverage);
  }
  if (h.spectrum.peakValue < t.minPeakValue) {
    if (!why.empty()) why += "; ";
    why += "spectrum peak " + std::to_string(h.spectrum.peakValue) + " < " +
           std::to_string(t.minPeakValue);
  }
  if (t.rejectQuarantined &&
      h.spin.verdict == robust::SpinVerdict::kQuarantine) {
    if (!why.empty()) why += "; ";
    why += "spin quarantined (sidelobe ratio " +
           std::to_string(h.spin.peakToSidelobeRatio) + ", ghost score " +
           std::to_string(h.spin.ghostScore) + ")";
  }
  return why.empty() ? "healthy" : why;
}

Error tooFewRigs(size_t offered) {
  return Error{ErrorCode::kTooFewRigs,
               "tryLocate: need at least two rigs, got " +
                   std::to_string(offered)};
}

/// Shared middle of tryLocate2D/3D: rig selection from each offered rig's
/// health.  On success `report` has grade/health/used/dropped filled in
/// (confidence is completed by the caller once directions exist).
Result<ResilienceReport> selectRigs(std::vector<RigHealth> health,
                                    const RigHealthThresholds& thresholds) {
  const size_t offered = health.size();
  ResilienceReport report;
  report.rigHealth = std::move(health);

  std::vector<size_t> healthy;
  for (size_t i = 0; i < offered; ++i) {
    if (isHealthy(report.rigHealth[i], thresholds)) healthy.push_back(i);
  }

  if (healthy.size() >= 2) {
    report.usedRigs = healthy;
    report.grade =
        healthy.size() == offered ? FixGrade::kFull : FixGrade::kDegraded;
  } else {
    // Fallback: the PowerProfile needs >= 2 snapshots and the spectrum must
    // not be flat; among those minimally usable rigs take the best two.
    std::vector<size_t> usable;
    for (size_t i = 0; i < offered; ++i) {
      const RigHealth& h = report.rigHealth[i];
      if (h.profileError.empty() && h.snapshotCount >= 2 &&
          h.arcCoverage > 0.0 && h.spectrum.peakValue > 0.0) {
        usable.push_back(i);
      }
    }
    if (usable.size() < 2) {
      return Error{
          ErrorCode::kTooFewHealthyRigs,
          "tryLocate: only " + std::to_string(usable.size()) + " of " +
              std::to_string(offered) +
              " rigs are usable; need two for a fix"};
    }
    std::sort(usable.begin(), usable.end(), [&](size_t a, size_t b) {
      return fallbackScore(report.rigHealth[a]) >
             fallbackScore(report.rigHealth[b]);
    });
    usable.resize(2);
    std::sort(usable.begin(), usable.end());
    report.usedRigs = usable;
    report.grade = FixGrade::kMinimal;
  }

  for (size_t i = 0; i < offered; ++i) {
    if (std::find(report.usedRigs.begin(), report.usedRigs.end(), i) ==
        report.usedRigs.end()) {
      report.droppedRigs.push_back(i);
      report.droppedReasons.push_back(
          unhealthyReason(report.rigHealth[i], thresholds));
    }
  }
  return report;
}

double gradeMultiplier(FixGrade grade) {
  switch (grade) {
    case FixGrade::kFull: return 1.0;
    case FixGrade::kDegraded: return 0.7;
    case FixGrade::kMinimal: return 0.4;
  }
  return 0.0;
}

/// Confidence of a produced fix: spectral quality of the used rigs combined
/// with the bearing GDOP at the fix, scaled by the degradation grade, then
/// penalised for robust-estimation warnings (suspect/quarantined spins
/// among the used rigs, behind-origin rays, consensus outliers).  Clean
/// fixes -- every spin accepted, every ray in front of its rig, full
/// inlier set -- incur no penalty.
double resilientConfidence(const ResilienceReport& report,
                           std::span<const RigObservation> obs,
                           std::span<const RigDirection> directions,
                           const geom::Vec2& position,
                           const EstimationDiagnostics& estimation) {
  std::vector<SpectrumQuality> spectra;
  std::vector<geom::Ray2> rays;
  spectra.reserve(report.usedRigs.size());
  rays.reserve(report.usedRigs.size());
  for (size_t k = 0; k < report.usedRigs.size(); ++k) {
    const size_t i = report.usedRigs[k];
    spectra.push_back(report.rigHealth[i].spectrum);
    rays.push_back({obs[i].rig.center.xy(), directions[k].azimuth});
  }
  const double gdop = bearingGdop(rays, position);
  double penalty = 1.0;
  for (const auto& spin : estimation.spins) {
    if (spin.verdict == robust::SpinVerdict::kSuspect) penalty *= 0.85;
    if (spin.verdict == robust::SpinVerdict::kQuarantine) penalty *= 0.6;
  }
  // A fix behind a rig means at least one bearing is physically impossible
  // (mirror/ghost lobe won the spectrum) -- the satellite fix for the old
  // silent behaviour of leastSquaresIntersection.
  if (estimation.behindOriginRays > 0) penalty *= 0.6;
  if (estimation.consensusUsed) {
    penalty *= 0.5 + 0.5 * estimation.inlierFraction;
  }
  return gradeMultiplier(report.grade) * fixConfidence(spectra, gdop) *
         penalty;
}

std::vector<RigObservation> subsetObservations(
    std::span<const RigObservation> obs, std::span<const size_t> indices) {
  std::vector<RigObservation> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(obs[i]);
  return out;
}

}  // namespace

std::vector<RigHealth> Locator::assessHealth(
    std::span<const RigObservation> observations,
    std::vector<std::optional<RigPass>>* pass0) const {
  const robust::SpinDiagnosticsConfig* diag =
      config_.robust.diagnostics ? &config_.robust.diagnosticsConfig
                                 : nullptr;
  std::vector<RigHealth> health;
  health.reserve(observations.size());
  for (const RigObservation& o : observations) {
    std::optional<RigPass> pass;
    if (pass0 != nullptr && o.snapshots.size() >= 2) {
      try {
        pass.emplace(searchRig(o.snapshots, o.rig, config_.profile,
                               /*threeD=*/false));
      } catch (const std::invalid_argument&) {
        // No profile: the sweeping form below records the constructor's
        // message in profileError.
      }
    }
    health.push_back(
        pass ? assessRigHealth(o.snapshots, o.rig.kinematics, pass->profile,
                               pass->spectrum.grid, diag)
             : assessRigHealth(o.snapshots, o.rig.kinematics,
                               config_.profile, diag,
                               config_.search.azimuthGridPoints));
    if (pass0 != nullptr) pass0->push_back(std::move(pass));
  }
  return health;
}

Result<ResilientFix2D> Locator::locate(
    std::span<const RigObservation> observations,
    const RigHealthThresholds& thresholds, bool threeD) const {
  obs::add(threeD ? obs_.fix3dAttempts : obs_.fix2dAttempts);
  TAGSPIN_SPAN(threeD ? obs_.fix3d : obs_.fix2d);
  if (observations.size() < 2) return tooFewRigs(observations.size());
  // Health assesses the configured profile of the raw snapshots.  In 2D that
  // is pass 0's profile unless pass 0 switches to Q for orientation
  // calibration; when it is, each rig's pass 0 is searched once, health
  // reads its grid and the fix reuses it.  3D health sweeps its own grid.
  const bool share =
      !threeD && passZeroConfig(config_, observations).formula ==
                     config_.profile.formula;
  std::vector<std::optional<RigPass>> pass0;
  Result<ResilienceReport> selected = selectRigs(
      assessHealth(observations, share ? &pass0 : nullptr), thresholds);
  if (!selected) return selected.error();
  ResilientFix2D out;
  out.report = std::move(*selected);
  const std::vector<RigObservation> used =
      subsetObservations(observations, out.report.usedRigs);
  std::vector<std::optional<RigPass>> usedPass0;
  if (share) {
    for (size_t i : out.report.usedRigs) {
      usedPass0.push_back(std::move(pass0[i]));
    }
  }

  const size_t n = used.size();
  const ProfileConfig cfg0 = passZeroConfig(config_, used);
  const int passes =
      calibratesOrientation(config_, used) ? config_.orientationIterations : 0;
  Fix2D& fix = out.fix;
  fix.directions.resize(n);
  std::vector<RigBearing> bearings(n);
  // One rig's pass: pass 0 reads the raw snapshots (or the pass already
  // searched for it); later passes correct each rig's phases against the
  // running fix (exact tag-edge geometry; rho lives in the rigs' horizontal
  // plane, so only xy matters) and use the configured profile.
  auto runPass = [&](size_t i, int pass, const geom::Vec3& at) -> RigPass {
    const RigObservation& obs = used[i];
    if (pass > 0) {
      const std::vector<Snapshot> snaps = calibrateOrientationAtPosition(
          obs.snapshots, obs.rig, obs.orientation, at);
      return searchRig(snaps, obs.rig, config_.profile, threeD);
    }
    if (i < usedPass0.size() && usedPass0[i]) return std::move(*usedPass0[i]);
    return searchRig(obs.snapshots, obs.rig, cfg0, threeD);
  };
  try {
    for (int pass = 0; pass <= passes; ++pass) {
      const geom::Vec3 at{fix.position.x, fix.position.y,
                          used[0].rig.center.z};
      for (size_t i = 0; i < n; ++i) {
        const RigPass rigPass = runPass(i, pass, at);
        fix.directions[i] = rigPass.direction;
        bearings[i] = diagnoseBearing(rigPass, threeD);
      }
      const std::optional<geom::Vec2> hit = intersectBearings(
          used, bearings, fix.directions, fix.estimation, &fix.residualM);
      if (!hit) {
        return Error{
            ErrorCode::kDegenerateGeometry,
            "locate: rig rays are parallel; reader direction is degenerate"};
      }
      fix.position = *hit;
    }
  } catch (const std::invalid_argument& e) {
    // A profile that cannot be built on an orientation-corrected pass, or a
    // dsp helper handed an empty input.
    return Error{ErrorCode::kDegenerateGeometry, e.what()};
  }
  for (RigBearing& b : bearings) {
    fix.estimation.spins.push_back(std::move(b.spin));
  }
  if (config_.robust.bootstrap) {
    fix.estimation.ellipse =
        bootstrapEllipse2D(used, fix.directions, fix.position);
  }
  noteEstimationOutcome(fix.estimation);
  out.report.confidence = resilientConfidence(
      out.report, observations, fix.directions, fix.position, fix.estimation);
  obs::add(threeD ? obs_.fix3dOk : obs_.fix2dOk);
  noteResilientOutcome(out.report);
  return out;
}

Result<ResilientFix2D> Locator::tryLocate2D(
    std::span<const RigObservation> observations,
    const RigHealthThresholds& thresholds) const {
  return locate(observations, thresholds, /*threeD=*/false);
}

Result<ResilientFix3D> Locator::tryLocate3D(
    std::span<const RigObservation> observations,
    const RigHealthThresholds& thresholds) const {
  Result<ResilientFix2D> planar =
      locate(observations, thresholds, /*threeD=*/true);
  if (!planar) return planar.error();
  const geom::Vec2 xy = planar->fix.position;
  ResilientFix3D out;
  out.report = std::move(planar->report);
  Fix3D& fix = out.fix;
  fix.directions = std::move(planar->fix.directions);
  fix.residualM = planar->fix.residualM;
  fix.estimation = std::move(planar->fix.estimation);

  // Eqn. 13: each used rig predicts |z| = horizontal_distance *
  // tan(|gamma|); balance the estimates weighted by spectrum confidence.
  const std::vector<size_t>& used = out.report.usedRigs;
  double zAcc = 0.0;
  double wAcc = 0.0;
  for (size_t k = 0; k < used.size(); ++k) {
    const geom::Vec3& c = observations[used[k]].rig.center;
    const double horiz = (xy - c.xy()).norm();
    const double zk = horiz * std::tan(fix.directions[k].polar);
    const double w = std::max(fix.directions[k].peakValue, 1e-9);
    zAcc += w * zk;
    wAcc += w;
  }
  const double zMag = wAcc > 0.0 ? zAcc / wAcc : 0.0;
  // z is measured relative to the rig plane.
  const double zPlane = observations[used[0]].rig.center.z;

  switch (config_.zResolution) {
    case ZResolution::kNonNegative:
      fix.position = {xy.x, xy.y, zPlane + zMag};
      break;
    case ZResolution::kNonPositive:
      fix.position = {xy.x, xy.y, zPlane - zMag};
      break;
    case ZResolution::kBoth:
      fix.position = {xy.x, xy.y, zPlane + zMag};
      fix.mirrorCandidate = geom::Vec3{xy.x, xy.y, zPlane - zMag};
      break;
  }
  return out;
}

geom::Vec3 Locator::disambiguateZ(const RigObservation& verticalRig,
                                  const geom::Vec3& candidateA,
                                  const geom::Vec3& candidateB) const {
  PowerProfile profile(verticalRig.snapshots, verticalRig.rig.kinematics,
                       config_.profile);
  auto valueFor = [&](const geom::Vec3& candidate) {
    const geom::Vec3 u = (candidate - verticalRig.rig.center).normalized();
    // Projection of the direction onto the rig's x-z rotation plane.
    const double scale = std::hypot(u.x, u.z);
    const double angle = std::atan2(u.z, u.x);
    return profile.evaluateDirection(angle, scale);
  };
  return valueFor(candidateA) >= valueFor(candidateB) ? candidateA
                                                      : candidateB;
}

}  // namespace tagspin::core
