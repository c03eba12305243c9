// Offline processing: record an interrogation to a CSV trace file (the
// LLRP-report schema), then localize from the file alone -- the workflow a
// real deployment uses when the reader and the localization server are
// separate machines.
//
// Build & run:  ./build/examples/offline_trace [trace.csv]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/tagspin.hpp"
#include "eval/runner.hpp"
#include "rfid/report.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tagspin_trace.csv";

  // --- recording side ----------------------------------------------------
  sim::ScenarioConfig scenario;
  scenario.seed = 99;
  sim::World world = sim::makeTwoRigWorld(scenario);
  const geom::Vec3 truth{-0.7, 1.6, 0.0};
  sim::placeReaderAntenna(world, 0, truth);
  const rfid::ReportStream reports = sim::interrogate(world, {30.0, 0, 0});

  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << rfid::csvHeader() << '\n';
    for (const rfid::TagReport& r : reports) out << rfid::toCsvLine(r) << '\n';
  }
  std::printf("recorded %zu reports to %s\n", reports.size(), path.c_str());

  // --- replay side (only the file and the rig registry) -------------------
  rfid::ReportStream replayed;
  {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      if (!line.empty()) replayed.push_back(rfid::fromCsvLine(line));
    }
  }
  std::printf("replayed %zu reports\n", replayed.size());

  core::TagspinSystem server;
  for (const sim::RigTag& rt : world.rigs) {
    server.registerRig(rt.tag.epc, eval::rigSpecOf(rt));
  }
  const auto result = server.tryLocate2D(replayed);
  if (!result) {
    std::printf("no offline fix: %s (%s)\n",
                core::errorCodeName(result.code()),
                result.error().message.c_str());
    return 1;
  }
  const core::Fix2D& fix = result->fix;
  std::printf("offline fix: (%.3f, %.3f) m, true (%.3f, %.3f) m, "
              "error %.1f cm, grade %s\n",
              fix.position.x, fix.position.y, truth.x, truth.y,
              geom::distance(fix.position, truth.xy()) * 100.0,
              core::fixGradeName(result->report.grade));
  return 0;
}
