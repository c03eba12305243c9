#include "geom/angles.hpp"

#include <cmath>

namespace tagspin::geom {

double circularDistance(double a, double b) {
  return std::abs(circularDiff(a, b));
}

double circularMean(std::span<const double> angles) {
  double s = 0.0;
  double c = 0.0;
  for (double a : angles) {
    s += std::sin(a);
    c += std::cos(a);
  }
  if (s == 0.0 && c == 0.0) return 0.0;
  return std::atan2(s, c);
}

double circularResultantLength(std::span<const double> angles) {
  if (angles.empty()) return 0.0;
  double s = 0.0;
  double c = 0.0;
  for (double a : angles) {
    s += std::sin(a);
    c += std::cos(a);
  }
  return std::hypot(s, c) / static_cast<double>(angles.size());
}

double degToRad(double deg) { return deg * kPi / 180.0; }
double radToDeg(double rad) { return rad * 180.0 / kPi; }

std::vector<double> unwrapPhases(std::span<const double> wrapped) {
  std::vector<double> out;
  out.reserve(wrapped.size());
  double offset = 0.0;
  for (size_t i = 0; i < wrapped.size(); ++i) {
    if (i > 0) {
      const double step = wrapped[i] - wrapped[i - 1];
      if (step > kPi) {
        offset -= kTwoPi;
      } else if (step < -kPi) {
        offset += kTwoPi;
      }
    }
    out.push_back(wrapped[i] + offset);
  }
  return out;
}

std::vector<double> smoothPhasesPaperRule(std::span<const double> wrapped) {
  // The rule compares each sample with its *original* predecessor and
  // shifts by one turn; the shift accumulates so that later samples stay
  // aligned (comparing against already-shifted predecessors would need
  // multi-turn corrections after the second wrap).
  std::vector<double> out(wrapped.begin(), wrapped.end());
  double offset = 0.0;
  for (size_t i = 1; i < out.size(); ++i) {
    const double step = wrapped[i] - wrapped[i - 1];
    if (step > kPi) {
      offset -= kTwoPi;
    } else if (step < -kPi) {
      offset += kTwoPi;
    }
    out[i] += offset;
  }
  return out;
}

}  // namespace tagspin::geom
