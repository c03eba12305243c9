#include "eval/estimators.hpp"

#include "core/tagspin.hpp"

namespace tagspin::eval {

core::TagspinSystem buildTagspinServer(
    const sim::World& world,
    const std::map<Epc, core::OrientationModel>& orientationModels,
    const core::LocatorConfig& config) {
  core::TagspinSystem server(config);
  for (const sim::RigTag& rt : world.rigs) {
    if (rt.rig.plane == sim::SpinningRig::Plane::kHorizontal) {
      server.registerRig(rt.tag.epc, rigSpecOf(rt));
    } else {
      server.registerVerticalRig(rt.tag.epc, rigSpecOf(rt));
    }
    if (const auto it = orientationModels.find(rt.tag.epc);
        it != orientationModels.end()) {
      server.setOrientationModel(rt.tag.epc, it->second);
    }
  }
  return server;
}

core::TagspinSystem buildPaperServer(
    const sim::World& world,
    const std::map<Epc, core::OrientationModel>& orientationModels,
    const core::LocatorConfig& config) {
  core::TagspinSystem server =
      buildTagspinServer(world, orientationModels, config);
  core::PreprocessConfig preprocess;
  preprocess.repair = false;
  server.setPreprocessConfig(preprocess);
  server.setHealthThresholds(core::kKeepEveryRig);
  return server;
}

Estimator makeTagspin2D(const core::LocatorConfig& config) {
  return [config](const TrialContext& ctx) {
    const core::TagspinSystem server =
        buildPaperServer(ctx.world, ctx.orientationModels, config);
    const core::Fix2D fix = fixOrThrow(server.tryLocate2D(ctx.reports));
    const double planeZ =
        ctx.world.rigs.empty() ? 0.0 : ctx.world.rigs[0].rig.center.z;
    return geom::Vec3{fix.position.x, fix.position.y, planeZ};
  };
}

Estimator makeTagspin3D(const core::LocatorConfig& config) {
  return [config](const TrialContext& ctx) {
    const core::TagspinSystem server =
        buildPaperServer(ctx.world, ctx.orientationModels, config);
    return fixOrThrow(server.tryLocate3D(ctx.reports)).position;
  };
}

}  // namespace tagspin::eval
