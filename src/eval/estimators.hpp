// Estimator adapters: wire TrialContext into Tagspin and the baseline
// localizers so they can be swapped inside runExperiment.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/locator.hpp"
#include "eval/runner.hpp"

namespace tagspin::baselines {
struct LandmarcConfig;
struct AntLocConfig;
struct PinItConfig;
struct BackPosConfig;
}  // namespace tagspin::baselines

namespace tagspin::core {
class TagspinSystem;
}

namespace tagspin::eval {

/// Build a localization server wired to every rig of `world`, with the
/// given per-tag orientation models installed.  Shared by the estimator
/// adapters, the bench binaries and the examples.
core::TagspinSystem buildTagspinServer(
    const sim::World& world,
    const std::map<Epc, core::OrientationModel>& orientationModels,
    const core::LocatorConfig& config);

/// buildTagspinServer set up as the paper's estimator (section V): no
/// robust preprocess stage, so a rig's snapshots are its sorted and
/// subsampled reads, and the core::kKeepEveryRig health thresholds, so
/// tryLocate2D/3D fix over every heard rig whose profile can be built.  The
/// paper figures and ablations use it; a server keeps buildTagspinServer's
/// robust defaults.
core::TagspinSystem buildPaperServer(
    const sim::World& world,
    const std::map<Epc, core::OrientationModel>& orientationModels,
    const core::LocatorConfig& config);

/// The fix inside a tryLocate2D/3D result.  Throws std::runtime_error
/// naming the ErrorCode when there is none (runExperiment counts the trial
/// as failed).
template <typename Resilient>
auto fixOrThrow(core::Result<Resilient> result) {
  if (!result) {
    throw std::runtime_error(std::string(core::errorCodeName(result.code())) +
                             ": " + result.error().message);
  }
  return std::move(result->fix);
}

/// Tagspin 2D: the paper server over every rig of the world, with the
/// prelude models installed; returns (x, y, rig-plane z).
Estimator makeTagspin2D(const core::LocatorConfig& config = {});

/// Tagspin 3D: as above but with the spatial spectrum and z recovery.
Estimator makeTagspin3D(const core::LocatorConfig& config = {});

/// Baseline adapters (declared here, defined in estimators_baselines.cpp,
/// which links against tagspin_baselines).
Estimator makeLandmarc(const baselines::LandmarcConfig& config);
Estimator makeAntLoc(const baselines::AntLocConfig& config);
Estimator makePinIt(const baselines::PinItConfig& config);
Estimator makeBackPos(const baselines::BackPosConfig& config);

}  // namespace tagspin::eval
