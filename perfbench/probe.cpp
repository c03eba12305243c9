#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

constexpr int kFpIterations = 40000;
constexpr size_t kIntElements = 24000;

const std::vector<uint32_t>& intInput() {
  static const std::vector<uint32_t> input = [] {
    std::vector<uint32_t> v(kIntElements);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<uint32_t>(x >> 16);
    }
    return v;
  }();
  return input;
}

}  // namespace

double probeFp() {
  double re = 0.0;
  double im = 0.0;
  for (int i = 0; i < kFpIterations; ++i) {
    const double a = 1e-3 * static_cast<double>(i);
    const double arg = 3.9 * std::cos(a - 0.7);
    const double w = std::exp(-0.5 * arg * arg * 1e-2);
    re += w * std::cos(arg);
    im += w * std::sin(arg);
  }
  return std::hypot(re, im);
}

unsigned probeInt() {
  std::vector<uint32_t> v = intInput();
  std::sort(v.begin(), v.end());
  return v[v.size() / 3] ^ v[v.size() / 2];
}

}  // namespace perfbench
