// Operational quality monitoring: a deployment that localizes in rounds,
// reads every fix's confidence (spectrum quality and ray geometry, scaled
// down for dropped rigs), rejects low-confidence rounds, and fuses the
// survivors with the geometric median.
//
// The scenario is deliberately hostile -- heavy interference corrupts a
// fifth of the reads -- to show the metrics doing real work.
//
// Build & run:  ./build/examples/quality_monitor
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/fusion.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main() {
  sim::ScenarioConfig scenario;
  scenario.seed = 55;
  sim::World world = sim::makeTwoRigWorld(scenario);
  rf::ChannelConfig cc = world.channel.config();
  cc.phaseOutlierProb = 0.20;  // hostile RF environment
  world.channel = rf::BackscatterChannel(cc, world.channel.scatterers());

  const geom::Vec3 truth{0.8, 2.4, 0.0};
  sim::placeReaderAntenna(world, 0, truth);

  const auto models = eval::runCalibrationPrelude(world, 60.0);
  const core::TagspinSystem server =
      eval::buildTagspinServer(world, models, {});

  std::printf("%6s %10s %10s %12s\n", "round", "err_cm", "grade",
              "confidence");
  std::vector<std::pair<double, geom::Vec2>> scored;
  std::vector<geom::Vec2> all;
  for (int round = 0; round < 10; ++round) {
    const auto reports = sim::interrogate(
        world, {8.0, 0, 0x9000ULL + static_cast<uint64_t>(round)});
    const auto result = server.tryLocate2D(reports);
    if (!result) {
      std::printf("%6d  no fix: %s\n", round,
                  core::errorCodeName(result.code()));
      continue;
    }
    const geom::Vec2 position = result->fix.position;
    all.push_back(position);
    scored.push_back({result->report.confidence, position});
    std::printf("%6d %10.2f %10s %12.3f\n", round,
                geom::distance(position, truth.xy()) * 100.0,
                core::fixGradeName(result->report.grade),
                result->report.confidence);
  }

  const geom::Vec2 fusedAll = core::geometricMedian(all);
  std::printf("\nfused (all rounds, geometric median):           %.2f cm\n",
              geom::distance(fusedAll, truth.xy()) * 100.0);
  // Keep the most-confident half of the rounds.
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<geom::Vec2> accepted;
  for (size_t i = 0; i < scored.size() / 2; ++i) {
    accepted.push_back(scored[i].second);
  }
  const geom::Vec2 fused = core::geometricMedian(accepted);
  std::printf("fused (top-%zu rounds by confidence):            %.2f cm\n",
              accepted.size(), geom::distance(fused, truth.xy()) * 100.0);
  return 0;
}
