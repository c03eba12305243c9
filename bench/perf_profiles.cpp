// Microbenchmarks of the hot paths (google-benchmark): profile evaluation
// (one direction per call, 720-point evaluateGrid sweeps, and 720-point
// rows of the float scan), azimuth spectrum search (exhaustive vs
// coarse-to-fine), the 3D spatial search (the production float-screened
// search and the double grid it replaced), and the end-to-end 2D fix
// (tryLocate2D).  The sweeps, the scan rows and the 3D searches run once
// per kernel level (last argument: 0 baseline, 1 x86-64-v3, 2 x86-64-v4; a
// level the host lacks is skipped), and the context records the level
// every other benchmark runs at.  The persistence layer: checkpoint text
// encode and decode in the ingest workload's shape, and the CRC-32 that
// frames checkpoints and capture chunks (bytes/s).  Ingest preprocessing:
// the Hampel phase filter against its test oracle (items/s are snapshots),
// and the robust extraction of a faulted 3-rig stream (items/s are
// reports).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/locator.hpp"
#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "core/serialization.hpp"
#include "core/spectrum.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "runtime/checkpoint.hpp"

#include "../tests/core/ingest_stream.hpp"
#include "../tests/core/reference_preprocess.hpp"

using namespace tagspin;

namespace {

std::vector<core::Snapshot> makeSnapshots(size_t n, double phiTrue) {
  const double lambda = 0.325;
  const double r = 0.10;
  const double D = 2.0;
  const core::RigKinematics kin{r, 0.5, 0.0, geom::kPi / 2.0};
  std::mt19937_64 rng(42);
  std::normal_distribution<double> noise(0.0, 0.1);
  std::vector<core::Snapshot> snaps;
  snaps.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 30.0 / static_cast<double>(n);
    const double a = kin.diskAngle(t);
    const double d = D - r * std::cos(a - phiTrue);
    core::Snapshot s;
    s.timeS = t;
    s.phaseRad =
        geom::wrapTwoPi(4.0 * geom::kPi / lambda * d + 1.23 + noise(rng));
    s.lambdaM = lambda;
    s.channel = 0;
    snaps.push_back(s);
  }
  return snaps;
}

const core::RigKinematics kKin{0.10, 0.5, 0.0, geom::kPi / 2.0};

/// The kernel level named by the benchmark's argument `index`, or nothing
/// (the benchmark skipped) when this host cannot run it.
std::optional<core::KernelIsa> kernelLevel(benchmark::State& state,
                                           int index) {
  const auto isa = static_cast<core::KernelIsa>(state.range(index));
  if (!core::kernelIsaSupported(isa)) {
    state.SkipWithError(
        (std::string(core::kernelIsaName(isa)) + " unsupported").c_str());
    return std::nullopt;
  }
  state.SetLabel(core::kernelIsaName(isa));
  return isa;
}

const std::vector<int64_t> kLevels = {0, 1, 2};

void BM_EvaluateQ(benchmark::State& state) {
  const auto snaps = makeSnapshots(static_cast<size_t>(state.range(0)), 1.0);
  core::ProfileConfig pc;
  pc.formula = core::ProfileFormula::kRelativeQ;
  const core::PowerProfile profile(snaps, kKin, pc);
  double phi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.evaluate(phi));
    phi += 0.01;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(snaps.size()));
}
BENCHMARK(BM_EvaluateQ)->Arg(256)->Arg(1024)->Arg(2500);

void BM_EvaluateR(benchmark::State& state) {
  const auto snaps = makeSnapshots(static_cast<size_t>(state.range(0)), 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  double phi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.evaluate(phi));
    phi += 0.01;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(snaps.size()));
}
BENCHMARK(BM_EvaluateR)->Arg(256)->Arg(1024)->Arg(2500);

// One 720-point evaluateGrid sweep per iteration at the kernel level of
// argument 1; items are snapshot-evaluations, so items/s inverts to ns per
// snapshot-evaluation.
void sweepGrid(benchmark::State& state, core::ProfileFormula formula) {
  const std::optional<core::KernelIsa> isa = kernelLevel(state, 1);
  if (!isa) return;
  const auto snaps = makeSnapshots(static_cast<size_t>(state.range(0)), 1.0);
  core::ProfileConfig pc;
  pc.formula = formula;
  const core::PowerProfile profile(snaps, kKin, pc);
  const std::vector<double> grid = dsp::circularGrid(720);
  std::vector<double> out(grid.size());
  for (auto _ : state) {
    profile.evaluateGridOn(*isa, grid, 1.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.size() * snaps.size()));
}

void BM_EvaluateGridQ(benchmark::State& state) {
  sweepGrid(state, core::ProfileFormula::kRelativeQ);
}
BENCHMARK(BM_EvaluateGridQ)->ArgsProduct({{256, 1250}, kLevels});

void BM_EvaluateGridR(benchmark::State& state) {
  sweepGrid(state, core::ProfileFormula::kEnhancedR);
}
BENCHMARK(BM_EvaluateGridR)->ArgsProduct({{256, 1250}, kLevels});

void BM_AzimuthSearchExhaustive(benchmark::State& state) {
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimateAzimuth(profile, {}));
  }
}
BENCHMARK(BM_AzimuthSearchExhaustive);

void BM_AzimuthSearchCoarseFine(benchmark::State& state) {
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimateAzimuthCoarseFine(profile, {}));
  }
}
BENCHMARK(BM_AzimuthSearchCoarseFine);

// The production 3D search, estimateSpatial (float scan, double re-check
// of the candidate cells, refinement), at the kernel level of argument 0.
void BM_SpatialSearch3D(benchmark::State& state) {
  const std::optional<core::KernelIsa> isa = kernelLevel(state, 0);
  if (!isa) return;
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  const core::SearchConfig search;
  size_t rechecked = 0;
  for (auto _ : state) {
    const core::SpatialEstimate est =
        core::estimateSpatialOn(*isa, profile, search);
    rechecked = est.recheckedCells;
    benchmark::DoNotOptimize(est);
  }
  state.counters["rechecked"] = static_cast<double>(rechecked);
}
BENCHMARK(BM_SpatialSearch3D)
    ->ArgsProduct({kLevels})
    ->Unit(benchmark::kMillisecond);

// The 3D search before the float scan: maximizeRect over the whole double
// grid, every evaluation at the kernel level of argument 0 -- the same
// result as BM_SpatialSearch3D's, for the before/after comparison.
void BM_SpatialSearch3DDoubleGrid(benchmark::State& state) {
  const std::optional<core::KernelIsa> isa = kernelLevel(state, 0);
  if (!isa) return;
  const auto snaps = makeSnapshots(1024, 1.0);
  const core::PowerProfile profile(snaps, kKin, {});
  const core::SearchConfig search;
  const dsp::RectGrid grid = core::spatialSearchGrid(search);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::maximizeRect(
        [&](std::span<const double> phis, double gamma,
            std::span<double> out) {
          profile.evaluateGridOn(*isa, phis, std::cos(gamma), out);
        },
        grid.ymin, grid.ymax, grid.nx, grid.ny, search.refineRounds));
  }
}
BENCHMARK(BM_SpatialSearch3DDoubleGrid)
    ->ArgsProduct({kLevels})
    ->Unit(benchmark::kMillisecond);

// One 720-point row of the float scan (values and bounds) per iteration at
// the kernel level of argument 1, for BM_EvaluateGrid*'s comparison: items
// are snapshot-evaluations.
void scanRow(benchmark::State& state, core::ProfileFormula formula) {
  const std::optional<core::KernelIsa> isa = kernelLevel(state, 1);
  if (!isa) return;
  const auto snaps = makeSnapshots(static_cast<size_t>(state.range(0)), 1.0);
  core::ProfileConfig pc;
  pc.formula = formula;
  const core::PowerProfile profile(snaps, kKin, pc);
  const std::vector<double> grid = dsp::circularGrid(720);
  const double scale = 1.0;
  std::vector<double> values(grid.size());
  std::vector<double> bounds(grid.size());
  for (auto _ : state) {
    profile.scanRectOn(*isa, grid, {&scale, 1}, values, bounds);
    benchmark::DoNotOptimize(values.data());
    benchmark::DoNotOptimize(bounds.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.size() * snaps.size()));
}

void BM_ScanRectQ(benchmark::State& state) {
  scanRow(state, core::ProfileFormula::kRelativeQ);
}
BENCHMARK(BM_ScanRectQ)->ArgsProduct({{256, 1250}, kLevels});

void BM_ScanRectR(benchmark::State& state) {
  scanRow(state, core::ProfileFormula::kEnhancedR);
}
BENCHMARK(BM_ScanRectR)->ArgsProduct({{256, 1250}, kLevels});

void BM_TryLocate2D(benchmark::State& state) {
  // Three rigs, 1024 snapshots each, paper config, no orientation model:
  // the health check, the search and the spin diagnostics share each rig's
  // one spectrum.
  const double readerX = 0.3;
  const double readerY = 2.0;
  std::vector<core::RigObservation> obs;
  for (const double x : {-0.4, 0.0, 0.4}) {
    core::RigObservation o;
    o.rig.center = {x, 0.0, 0.0};
    o.rig.kinematics = kKin;
    o.snapshots = makeSnapshots(1024, std::atan2(readerY, readerX - x));
    obs.push_back(std::move(o));
  }
  const core::Locator locator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.tryLocate2D(obs));
  }
}
BENCHMARK(BM_TryLocate2D)->Unit(benchmark::kMillisecond);

/// A checkpoint in the ingest workload's shape: 3 rigs of 4000 snapshots
/// each (12 000 in all) with LLRP-quantised values -- microsecond
/// timestamps, 12-bit phases, a 50-channel UHF plan, half-dB RSSI -- no
/// spectrum, no model, no fix.
core::CalibrationCheckpoint ingestShapedCheckpoint() {
  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = 1;
  ckpt.lastReportTimestampS = 125.663706;
  std::mt19937_64 rng(7);
  for (uint32_t rig = 0; rig < 3; ++rig) {
    core::TagCalibrationProgress& tag =
        ckpt.tags[rfid::Epc::forSimulatedTag(rig)];
    for (int i = 0; i < 4000; ++i) {
      core::Snapshot s;
      s.timeS = std::round(i * 31415.9 + rng() % 1000) * 1e-6;
      s.phaseRad = static_cast<double>(rng() % 4096) * geom::kTwoPi / 4096.0;
      s.channel = static_cast<int>(rng() % 50);
      s.lambdaM = 299792458.0 / (902.75e6 + 0.5e6 * s.channel);
      s.rssiDbm = -40.0 - 0.5 * static_cast<double>(rng() % 80);
      tag.snapshots.push_back(s);
    }
  }
  return ckpt;
}

void BM_CheckpointEncode(benchmark::State& state) {
  const core::CalibrationCheckpoint ckpt = ingestShapedCheckpoint();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = core::checkpointToString(ckpt);
    bytes += text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CheckpointEncode)->Unit(benchmark::kMillisecond);

void BM_CheckpointDecode(benchmark::State& state) {
  const std::string text = core::checkpointToString(ingestShapedCheckpoint());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::checkpointFromString(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CheckpointDecode)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> bytes(1 << 20);
  std::mt19937_64 rng(3);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

/// A faulted ~40k-report 3-rig stream (~14k snapshots per rig), built
/// once: the preprocessing benchmarks' input at ingest scale.
const core::testing::IngestStream& ingestStream() {
  static const core::testing::IngestStream stream =
      core::testing::makeIngestStream(1);
  return stream;
}

void BM_HampelFilter(benchmark::State& state) {
  // Argument 0: the production filter; 1: the nth_element/fmod oracle it
  // replaced (tests/core/reference_preprocess.hpp).
  const core::testing::IngestStream& stream = ingestStream();
  const std::vector<core::Snapshot> snaps = core::extractSnapshots(
      stream.reports, stream.rigEpcs[0], {.maxSnapshots = 0});
  const bool reference = state.range(0) == 1;
  state.SetLabel(reference ? "reference" : "production");
  for (auto _ : state) {
    size_t dropped = 0;
    benchmark::DoNotOptimize(
        reference ? core::testing::referenceHampelFilterPhases(snaps, &dropped)
                  : core::hampelFilterPhases(snaps, &dropped));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(snaps.size()));
}
BENCHMARK(BM_HampelFilter)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ExtractSnapshotsRobust(benchmark::State& state) {
  // Every repair stage over each of the stream's 3 rigs, as ingest runs it.
  const core::testing::IngestStream& stream = ingestStream();
  for (auto _ : state) {
    for (const rfid::Epc& epc : stream.rigEpcs) {
      benchmark::DoNotOptimize(
          core::extractSnapshotsRobust(stream.reports, epc));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.reports.size()));
}
BENCHMARK(BM_ExtractSnapshotsRobust)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "kernel", core::kernelIsaName(core::activeKernelIsa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
