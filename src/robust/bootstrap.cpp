#include "robust/bootstrap.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "geom/angles.hpp"
#include "geom/ray.hpp"

namespace tagspin::robust {
namespace {

// Replicates farther than this from the fix come from a near-singular
// resampled geometry; they carry no calibrated information and would
// otherwise dominate the covariance.
constexpr double kReplicateSanityM = 1e3;

constexpr int kReplicates = 160;
constexpr double kConfidenceLevel = 0.90;
// Give up (return empty) when fewer replicates than this produced a
// non-degenerate intersection.
constexpr size_t kMinValidReplicates = 24;

}  // namespace

double ConfidenceEllipse::areaM2() const {
  return geom::kPi * semiMajorM * semiMinorM;
}

bool ConfidenceEllipse::contains(const geom::Vec2& p) const {
  if (semiMajorM <= 0.0 || semiMinorM <= 0.0) return false;
  const geom::Vec2 d = p - center;
  const double c = std::cos(orientationRad);
  const double s = std::sin(orientationRad);
  const double u = (c * d.x + s * d.y) / semiMajorM;
  const double v = (-s * d.x + c * d.y) / semiMinorM;
  return u * u + v * v <= 1.0;
}

std::optional<ConfidenceEllipse> bootstrapEllipse(
    std::span<const BearingSamples> rays, const geom::Vec2& fix,
    const BootstrapConfig& config) {
  const size_t n = rays.size();
  if (n < 2) return std::nullopt;
  const bool anyDeviations =
      std::any_of(rays.begin(), rays.end(), [](const BearingSamples& r) {
        return !r.deviationsRad.empty();
      });
  if (!anyDeviations) return std::nullopt;

  std::mt19937_64 rng(config.seed);
  std::uniform_int_distribution<size_t> pickRay(0, n - 1);
  const bool resample = config.resampleRays && n >= 3;

  std::vector<geom::Vec2> points;
  points.reserve(kReplicates);
  std::vector<geom::Ray2> replicate(n);
  for (int b = 0; b < kReplicates; ++b) {
    for (size_t slot = 0; slot < n; ++slot) {
      const size_t i = resample ? pickRay(rng) : slot;
      const BearingSamples& ray = rays[i];
      double bearing = ray.bearingRad;
      if (!ray.deviationsRad.empty()) {
        std::uniform_int_distribution<size_t> pickDev(
            0, ray.deviationsRad.size() - 1);
        bearing += ray.deviationsRad[pickDev(rng)];
      }
      replicate[slot] = geom::Ray2{ray.origin, bearing};
    }
    const auto p = geom::leastSquaresIntersection(replicate);
    if (!p) continue;
    if (geom::distance(*p, fix) > kReplicateSanityM) continue;
    points.push_back(*p);
  }
  if (points.size() < kMinValidReplicates) return std::nullopt;

  geom::Vec2 mean{0.0, 0.0};
  for (const auto& p : points) mean = mean + p;
  mean = mean * (1.0 / static_cast<double>(points.size()));
  double cxx = 0.0, cxy = 0.0, cyy = 0.0;
  for (const auto& p : points) {
    const geom::Vec2 d = p - mean;
    cxx += d.x * d.x;
    cxy += d.x * d.y;
    cyy += d.y * d.y;
  }
  const double denom = static_cast<double>(points.size()) - 1.0;
  cxx /= denom;
  cxy /= denom;
  cyy /= denom;

  const double tr = cxx + cyy;
  const double det = cxx * cyy - cxy * cxy;
  const double disc = std::sqrt(std::max(0.0, tr * tr - 4.0 * det));
  const double lambda1 = std::max(0.5 * (tr + disc), 1e-12);
  const double lambda2 = std::max(0.5 * (tr - disc), 1e-12);
  // Exact chi-square quantile for 2 degrees of freedom.
  const double chi2 = -2.0 * std::log(1.0 - kConfidenceLevel);

  ConfidenceEllipse ellipse;
  ellipse.center = fix;
  ellipse.semiMajorM = std::sqrt(lambda1 * chi2);
  ellipse.semiMinorM = std::sqrt(lambda2 * chi2);
  ellipse.orientationRad = 0.5 * std::atan2(2.0 * cxy, cxx - cyy);
  ellipse.confidenceLevel = kConfidenceLevel;
  return ellipse;
}

}  // namespace tagspin::robust
