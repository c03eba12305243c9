// The batched spectrum kernel's resource contract: a sweep or a float scan
// makes no heap allocation once the calling thread's scratch has grown,
// and concurrent const calls on one profile return exactly what a single
// thread gets -- through the public entry points and at every kernel
// level.  And the locator's: an allocation failure inside a fix reaches the
// caller as std::bad_alloc, never as a typed error.
//
// This binary replaces the global operator new with a counting one that can
// also be armed to fail, so it is its own executable.  It carries the `tsan`
// label: the concurrent test is what the ThreadSanitizer pass needs to cover
// the kernel's thread_local scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/locator.hpp"
#include "core/power_profile.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "kernel_levels.hpp"
#include "synthetic.hpp"

namespace {
std::atomic<size_t> gAllocations{0};
// Throwing allocations left until one fails: the one that brings this to 0
// throws std::bad_alloc.  0 = never (the default).
std::atomic<size_t> gFailAt{0};
}  // namespace

// All four out of line, so GCC sees neither malloc() behind operator new
// nor free() behind operator delete and warns about a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (gFailAt.load(std::memory_order_relaxed) != 0 &&
      gFailAt.fetch_sub(1, std::memory_order_relaxed) == 1) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form (std::stable_sort's temporary buffer) is counted but
// never armed: its callers handle a null result by design.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tagspin::core {
namespace {

/// 1200 reads hopping over 16 channels, as a rig's snapshot set looks in
/// the field.
std::vector<Snapshot> hoppingSnapshots() {
  testing::SyntheticConfig sc;
  sc.count = 1200;
  sc.noiseStd = 0.1;
  auto snaps = testing::makeSnapshots(sc);
  for (size_t i = 0; i < snaps.size(); ++i) {
    snaps[i].channel = static_cast<int>(i * 7 % 16);
  }
  return snaps;
}

ProfileConfig configFor(ProfileFormula formula) {
  ProfileConfig pc;
  pc.formula = formula;
  return pc;
}

/// How a test reaches the kernel: through the public entry points (the
/// active level), or at one explicit level.
struct Route {
  std::optional<KernelIsa> level;

  void sweep(const PowerProfile& profile, std::span<const double> angles,
             double scale, std::span<double> out) const {
    if (level) {
      profile.evaluateGridOn(*level, angles, scale, out);
    } else {
      profile.evaluateGrid(angles, scale, out);
    }
  }
  double evaluate(const PowerProfile& profile, double phi,
                  double gamma) const {
    if (!level) return profile.evaluate(phi, gamma);
    double value = 0.0;
    profile.evaluateGridOn(*level, {&phi, 1}, std::cos(gamma), {&value, 1});
    return value;
  }
  PowerProfile::WeightStats weightStats(const PowerProfile& profile,
                                        double phi, double gamma) const {
    return level ? profile.weightStatsOn(*level, phi, gamma)
                 : profile.weightStats(phi, gamma);
  }
  void scan(const PowerProfile& profile, std::span<const double> angles,
            std::span<const double> scales, std::span<double> values,
            std::span<double> bounds) const {
    if (level) {
      profile.scanRectOn(*level, angles, scales, values, bounds);
    } else {
      profile.scanRect(angles, scales, values, bounds);
    }
  }
};

void expectNoHeapAllocationAfterWarmUp(const Route& route) {
  const auto snaps = hoppingSnapshots();
  const std::vector<double> grid = dsp::circularGrid(720);
  std::vector<double> out(grid.size());
  for (const auto formula :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, testing::defaultKinematics(),
                               configFor(formula));
    route.sweep(profile, grid, 1.0, out);  // grows this thread's scratch
    const size_t before = gAllocations.load();
    route.sweep(profile, grid, std::cos(0.3), out);
    double sink = route.evaluate(profile, 1.0, 0.2);
    sink += route.weightStats(profile, 1.0, 0.2).effectiveFraction;
    EXPECT_EQ(gAllocations.load() - before, 0u)
        << "formula " << static_cast<int>(formula);
    EXPECT_TRUE(std::isfinite(sink));
  }
}

void expectConcurrentSweepsMatchSingleThreaded(const Route& route) {
  const auto snaps = hoppingSnapshots();
  const std::vector<double> grid = dsp::circularGrid(720);
  for (const auto formula :
       {ProfileFormula::kRelativeQ, ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, testing::defaultKinematics(),
                               configFor(formula));
    const double scales[] = {1.0, std::cos(0.4), std::cos(1.1)};
    std::vector<std::vector<double>> expected;
    for (double scale : scales) {
      expected.emplace_back(grid.size());
      route.sweep(profile, grid, scale, expected.back());
    }
    constexpr size_t kThreads = 4;
    std::vector<std::vector<std::vector<double>>> got(
        kThreads, std::vector<std::vector<double>>(
                      std::size(scales), std::vector<double>(grid.size())));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t k = 0; k < std::size(scales); ++k) {
          // Each thread walks the scales in its own order.
          const size_t s = (k + t) % std::size(scales);
          route.sweep(profile, grid, scales[s], got[t][s]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t s = 0; s < std::size(scales); ++s) {
        EXPECT_EQ(std::memcmp(got[t][s].data(), expected[s].data(),
                              grid.size() * sizeof(double)),
                  0)
            << "formula " << static_cast<int>(formula) << " thread " << t
            << " scale " << s;
      }
    }
  }
}

/// A float scan's output: one value and one bound per cell.
struct Scan {
  std::vector<double> values;
  std::vector<double> bounds;

  Scan(size_t cells) : values(cells), bounds(cells) {}

  bool operator==(const Scan& other) const {
    const size_t bytes = values.size() * sizeof(double);
    return values.size() == other.values.size() &&
           std::memcmp(values.data(), other.values.data(), bytes) == 0 &&
           std::memcmp(bounds.data(), other.bounds.data(), bytes) == 0;
  }
};

void expectScanMakesNoHeapAllocationAfterWarmUp(const Route& route) {
  const auto snaps = hoppingSnapshots();
  const std::vector<double> angles = dsp::circularGrid(360);
  const std::vector<double> scales = {1.0, std::cos(0.5), std::cos(1.2)};
  Scan scan(angles.size() * scales.size());
  for (const auto formula :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, testing::defaultKinematics(),
                               configFor(formula));
    route.scan(profile, angles, scales, scan.values, scan.bounds);  // warm-up
    const size_t before = gAllocations.load();
    route.scan(profile, angles, scales, scan.values, scan.bounds);
    EXPECT_EQ(gAllocations.load() - before, 0u)
        << "formula " << static_cast<int>(formula);
    EXPECT_TRUE(std::isfinite(scan.values[7] + scan.bounds[7]));
  }
}

void expectConcurrentScansMatchSingleThreaded(const Route& route) {
  const auto snaps = hoppingSnapshots();
  const std::vector<double> angles = dsp::circularGrid(360);
  const std::vector<std::vector<double>> scales = {
      {1.0, std::cos(0.3)}, {std::cos(0.7)}, {std::cos(1.1), 0.2, 1.0}};
  for (const auto formula :
       {ProfileFormula::kRelativeQ, ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, testing::defaultKinematics(),
                               configFor(formula));
    std::vector<Scan> expected;
    for (const auto& rows : scales) {
      expected.emplace_back(angles.size() * rows.size());
      route.scan(profile, angles, rows, expected.back().values,
                 expected.back().bounds);
    }
    constexpr size_t kThreads = 4;
    std::vector<std::vector<Scan>> got(kThreads, expected);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t k = 0; k < scales.size(); ++k) {
          // Each thread walks the rectangles in its own order.
          const size_t r = (k + t) % scales.size();
          Scan& out = got[t][r];
          std::fill(out.values.begin(), out.values.end(), -1.0);
          route.scan(profile, angles, scales[r], out.values, out.bounds);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t r = 0; r < scales.size(); ++r) {
        EXPECT_TRUE(got[t][r] == expected[r])
            << "formula " << static_cast<int>(formula) << " thread " << t
            << " rectangle " << r;
      }
    }
  }
}

TEST(ProfileContract, SweepMakesNoHeapAllocationAfterWarmUp) {
  expectNoHeapAllocationAfterWarmUp({});
}

TEST(ProfileContract, ConcurrentSweepsMatchSingleThreadedBitForBit) {
  expectConcurrentSweepsMatchSingleThreaded({});
}

// The same contract at every kernel level the host supports.
using KernelIsaContract = testing::PerKernelLevel;

TEST_P(KernelIsaContract, SweepMakesNoHeapAllocationAfterWarmUp) {
  expectNoHeapAllocationAfterWarmUp({GetParam()});
}

TEST_P(KernelIsaContract, ConcurrentSweepsMatchSingleThreadedBitForBit) {
  expectConcurrentSweepsMatchSingleThreaded({GetParam()});
}

TEST(ProfileContract, ScanMakesNoHeapAllocationAfterWarmUp) {
  expectScanMakesNoHeapAllocationAfterWarmUp({});
}

TEST(ProfileContract, ConcurrentScansMatchSingleThreadedBitForBit) {
  expectConcurrentScansMatchSingleThreaded({});
}

// The float scan's contract at every level: the RectScan instantiation
// runs with the cross-level scan tests (ctest -R RectScan).
using RectScanContract = testing::PerKernelLevel;

TEST_P(RectScanContract, ScanMakesNoHeapAllocationAfterWarmUp) {
  expectScanMakesNoHeapAllocationAfterWarmUp({GetParam()});
}

TEST_P(RectScanContract, ConcurrentScansMatchSingleThreadedBitForBit) {
  expectConcurrentScansMatchSingleThreaded({GetParam()});
}

/// Three rigs of 300 snapshots around one reader above their plane.
std::vector<RigObservation> threeRigs() {
  const geom::Vec3 reader{0.7, 1.9, 0.4};
  std::vector<RigObservation> obs;
  for (size_t k = 0; k < 3; ++k) {
    RigObservation o;
    o.rig.center = {-0.5 + 0.5 * static_cast<double>(k), 0.0, 0.0};
    o.rig.kinematics = testing::defaultKinematics();
    testing::SyntheticConfig sc;
    sc.count = 300;
    sc.noiseStd = 0.1;
    sc.seed = k + 1;
    sc.distanceM = (reader.xy() - o.rig.center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(o.rig.center, reader);
    sc.readerPolar = geom::polarOf(o.rig.center, reader);
    o.snapshots = testing::makeSnapshots(sc, o.rig.kinematics);
    obs.push_back(std::move(o));
  }
  return obs;
}

/// The throwing allocations one call of `fix` makes (the countdown armed out
/// of reach).
template <class Fix>
size_t throwingAllocations(const Fix& fix) {
  constexpr size_t kFar = size_t{1} << 40;
  gFailAt.store(kFar);
  (void)fix();
  return kFar - gFailAt.exchange(0);
}

/// Fail the k-th throwing allocation of `fix` for each k in `ks`: every run
/// must end in std::bad_alloc, never in a fix or a typed error.
template <class Fix>
void expectAllocationFailuresThrow(const Fix& fix,
                                   const std::vector<size_t>& ks) {
  for (const size_t k : ks) {
    ErrorCode code = ErrorCode::kNone;
    bool threw = false;
    gFailAt.store(k);
    try {
      code = fix().code();
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    gFailAt.store(0);
    EXPECT_TRUE(threw) << "failing allocation " << k << " returned "
                       << (code == ErrorCode::kNone ? "a fix"
                                                    : errorCodeName(code));
  }
}

TEST(FixAllocationFailure, Every2DAllocationReachesTheCaller) {
  const std::vector<RigObservation> obs = threeRigs();
  const Locator locator;
  const auto fix = [&] { return locator.tryLocate2D(obs); };
  ASSERT_TRUE(fix());  // warm-up: grows this thread's kernel scratch
  const size_t count = throwingAllocations(fix);
  ASSERT_GT(count, 0u);
  std::vector<size_t> ks(count);
  for (size_t k = 0; k < count; ++k) ks[k] = k + 1;
  expectAllocationFailuresThrow(fix, ks);
  ASSERT_TRUE(fix());  // and the locator still works
}

TEST(FixAllocationFailure, Sampled3DAllocationsReachTheCaller) {
  const std::vector<RigObservation> obs = threeRigs();
  const Locator locator;
  const auto fix = [&] { return locator.tryLocate3D(obs); };
  ASSERT_TRUE(fix());  // warm-up
  const size_t count = throwingAllocations(fix);
  ASSERT_GT(count, 8u);
  expectAllocationFailuresThrow(
      fix, {1, 2, count / 8, count / 4, count / 2, 3 * count / 4, count - 1,
            count});
  ASSERT_TRUE(fix());
}

INSTANTIATE_TEST_SUITE_P(RectScan, RectScanContract,
                         ::testing::Values(KernelIsa::kBaseline,
                                           KernelIsa::kX86_64_V3,
                                           KernelIsa::kX86_64_V4),
                         testing::kernelLevelTestName);

INSTANTIATE_TEST_SUITE_P(KernelIsa, KernelIsaContract,
                         ::testing::Values(KernelIsa::kBaseline,
                                           KernelIsa::kX86_64_V3,
                                           KernelIsa::kX86_64_V4),
                         testing::kernelLevelTestName);

}  // namespace
}  // namespace tagspin::core
