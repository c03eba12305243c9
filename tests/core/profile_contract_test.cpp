// The batched spectrum kernel's resource contract: a sweep makes no heap
// allocation once the calling thread's scratch has grown, and concurrent
// const calls on one profile return exactly what a single thread gets.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable.  It carries the `tsan` label: the concurrent test
// is what the ThreadSanitizer pass needs to cover the kernel's
// thread_local scratch.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "core/power_profile.hpp"
#include "dsp/grid.hpp"
#include "synthetic.hpp"

namespace {
std::atomic<size_t> gAllocations{0};
}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not inline free() into code that holds the
// pointer from operator new and warn about a mismatched pair.
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

TEST(ProfileContract, SweepMakesNoHeapAllocationAfterWarmUp) {
  const auto snaps = hoppingSnapshots();
  const std::vector<double> grid = dsp::circularGrid(720);
  std::vector<double> out(grid.size());
  for (const auto formula :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    const PowerProfile profile(snaps, testing::defaultKinematics(),
                               configFor(formula));
    profile.evaluateGrid(grid, 1.0, out);  // grows this thread's scratch
    const size_t before = gAllocations.load();
    profile.evaluateGrid(grid, std::cos(0.3), out);
    double sink = profile.evaluate(1.0, 0.2);
    sink += profile.weightStats(1.0, 0.2).effectiveFraction;
    EXPECT_EQ(gAllocations.load() - before, 0u)
        << "formula " << static_cast<int>(formula);
    EXPECT_TRUE(std::isfinite(sink));
  }
}

TEST(ProfileContract, ConcurrentSweepsMatchSingleThreadedBitForBit) {
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
      profile.evaluateGrid(grid, scale, expected.back());
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
          profile.evaluateGrid(grid, scales[s], got[t][s]);
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

}  // namespace
}  // namespace tagspin::core
