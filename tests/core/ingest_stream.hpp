// A seeded stream in the shape of perfbench's ingest workload: one reader
// interrogating a row of 3 spinning rigs for 10 revolutions (~40k reports,
// ~13k per rig), passed through LLRP encode/decode (microsecond
// timestamps, 12-bit phases), then faulted with 2% duplicates, 1% reorders
// and 0.2% clock glitches.  Shared by the preprocessing tests and
// perf_profiles' Hampel and robust-extraction benchmarks, with the tests'
// bit-for-bit snapshot comparison.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/snapshot.hpp"
#include "rfid/epc.hpp"
#include "rfid/llrp.hpp"
#include "rfid/report.hpp"
#include "sim/faults.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"

namespace tagspin::core::testing {

struct IngestStream {
  rfid::ReportStream reports;      // faulted
  rfid::ReportStream clean;        // the same reads before the faults
  std::vector<rfid::Epc> rigEpcs;  // in rig-row order
};

inline IngestStream makeIngestStream(uint64_t seed) {
  constexpr int kRigs = 3;
  constexpr double kRevolutions = 10.0;
  sim::ScenarioConfig scenario;
  scenario.seed = sim::deriveSeed(seed, 10);
  sim::World world = sim::makeRigRowWorld(scenario, kRigs);
  auto rng = sim::makeRng(sim::deriveSeed(seed, 20));
  sim::placeReaderAntenna(world, 0, sim::Region{}.sample(rng, false));
  sim::InterrogateConfig ic;
  ic.durationS =
      kRevolutions * 2.0 * std::numbers::pi / scenario.rigOmegaRadPerS;
  ic.streamId = sim::deriveSeed(seed, 30);
  IngestStream out;
  out.clean = rfid::llrp::decodeStream(
      rfid::llrp::encodeStream(sim::interrogate(world, ic)));
  sim::FaultConfig faults;
  faults.seed = sim::deriveSeed(seed, 40);
  faults.duplicateProb = 0.02;
  faults.reorderProb = 0.01;
  faults.timestampGlitchProb = 0.002;
  out.reports = sim::FaultInjector(faults).corruptReports(out.clean);
  for (const sim::RigTag& rt : world.rigs) out.rigEpcs.push_back(rt.tag.epc);
  return out;
}

/// Same length, and every field of every snapshot equal bit for bit.
inline bool sameSnapshots(const std::vector<Snapshot>& a,
                          const std::vector<Snapshot>& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [&](const Snapshot& x, const Snapshot& y) {
                      return same(x.timeS, y.timeS) &&
                             same(x.phaseRad, y.phaseRad) &&
                             same(x.lambdaM, y.lambdaM) &&
                             x.channel == y.channel &&
                             same(x.rssiDbm, y.rssiDbm);
                    });
}

}  // namespace tagspin::core::testing
