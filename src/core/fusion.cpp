#include "core/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tagspin::core {

namespace {

constexpr int kMaxIterations = 100;
/// Closer than this, the estimate sits on a data point / has converged.
constexpr double kToleranceM = 1e-6;

template <typename Vec>
Vec weiszfeld(std::span<const Vec> points) {
  if (points.empty()) {
    throw std::invalid_argument("geometricMedian: empty input");
  }
  if (points.size() == 1) return points[0];
  // Start from the centroid.
  Vec estimate{};
  for (const Vec& p : points) estimate += p;
  estimate = estimate / static_cast<double>(points.size());

  for (int it = 0; it < kMaxIterations; ++it) {
    Vec acc{};
    double wAcc = 0.0;
    bool onDataPoint = false;
    for (const Vec& p : points) {
      const double d = geom::distance(estimate, p);
      if (d < kToleranceM) {
        // Weiszfeld guard: the estimate sits on a data point; it is the
        // median iff the sum of unit vectors to the others has norm <= 1.
        onDataPoint = true;
        continue;
      }
      const double w = 1.0 / d;
      acc += p * w;
      wAcc += w;
    }
    if (wAcc == 0.0) return estimate;  // all points coincide here
    Vec next = acc / wAcc;
    if (onDataPoint) {
      // Pull slightly toward the data point it sits on (standard fix).
      next = (next + estimate) / 2.0;
    }
    if (geom::distance(next, estimate) < kToleranceM) return next;
    estimate = next;
  }
  return estimate;
}

double medianOf(std::vector<double> xs) {
  const size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(mid), xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(mid) - 1,
                   xs.end());
  return (hi + xs[mid - 1]) / 2.0;
}

}  // namespace

geom::Vec2 geometricMedian(std::span<const geom::Vec2> points) {
  return weiszfeld(points);
}

geom::Vec3 geometricMedian(std::span<const geom::Vec3> points) {
  return weiszfeld(points);
}

geom::Vec2 componentMedian(std::span<const geom::Vec2> points) {
  if (points.empty()) {
    throw std::invalid_argument("componentMedian: empty input");
  }
  std::vector<double> xs, ys;
  for (const geom::Vec2& p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  return {medianOf(std::move(xs)), medianOf(std::move(ys))};
}

geom::Vec3 componentMedian(std::span<const geom::Vec3> points) {
  if (points.empty()) {
    throw std::invalid_argument("componentMedian: empty input");
  }
  std::vector<double> xs, ys, zs;
  for (const geom::Vec3& p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
    zs.push_back(p.z);
  }
  return {medianOf(std::move(xs)), medianOf(std::move(ys)),
          medianOf(std::move(zs))};
}

}  // namespace tagspin::core
