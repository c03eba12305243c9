// Scalar reference implementation of the angle profiles P, Q and R: the
// per-direction evaluation core::PowerProfile used before its batched
// kernel, kept verbatim as the test oracle -- array-of-structs entries,
// fmod-based wraps (geom::wrapToPi), std::polar and std::exp, and heap
// vectors per direction.  Test-only; the differential tests in
// profile_kernel_test.cpp hold PowerProfile::evaluateGrid to it.
#pragma once

#include <cmath>
#include <complex>
#include <map>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"
#include "geom/angles.hpp"

namespace tagspin::core::testing {

class ReferenceProfile {
 public:
  ReferenceProfile(std::span<const Snapshot> snapshots,
                   const RigKinematics& kinematics,
                   const ProfileConfig& config)
      : config_(config),
        radius_(kinematics.radiusM),
        sigmaPair_(config.phaseNoiseStd * std::numbers::sqrt2 *
                   config.weightSigmaScale) {
    if (snapshots.size() < 2) {
      throw std::invalid_argument("PowerProfile: need at least 2 snapshots");
    }
    const bool classical = config.formula == ProfileFormula::kClassicalP;
    const bool grouped = config.channelCoherent && !classical;

    // First snapshot of each channel group serves as the group's phase
    // reference (the paper's theta_0).
    struct GroupRef {
      int index;
      double phase;
      double diskAngle;
    };
    std::map<int, GroupRef> refs;
    int nextGroup = 0;

    entries_.reserve(snapshots.size());
    for (const Snapshot& s : snapshots) {
      const int key = grouped ? s.channel : 0;
      const double a = kinematics.diskAngle(s.timeS);
      auto [it, inserted] =
          refs.try_emplace(key, GroupRef{nextGroup, s.phaseRad, a});
      if (inserted) ++nextGroup;

      Entry e;
      e.cosA = std::cos(a);
      e.sinA = std::sin(a);
      e.cosRef = std::cos(it->second.diskAngle);
      e.sinRef = std::sin(it->second.diskAngle);
      e.k = 4.0 * std::numbers::pi / s.lambdaM;
      e.group = it->second.index;
      e.relPhase = classical ? s.phaseRad
                             : geom::wrapToPi(s.phaseRad - it->second.phase);
      entries_.push_back(e);
    }
    groupCount_ = nextGroup;
  }

  double evaluate(double phi, double gamma = 0.0) const {
    return evaluateDirection(phi, std::cos(gamma));
  }

  double evaluateDirection(double phi, double cg) const {
    const bool enhanced = config_.formula == ProfileFormula::kEnhancedR;
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    std::vector<std::complex<double>> sums(
        static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});

    if (!enhanced) {
      for (const Entry& e : entries_) {
        // cos(a_i - phi) from the precomputed components.
        const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
        const double steer = e.k * radius_ * cosAmP * cg;
        sums[static_cast<size_t>(e.group)] +=
            std::polar(1.0, e.relPhase + steer);
      }
    } else {
      const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
      std::vector<double> residuals(entries_.size());
      std::vector<std::complex<double>> centroids(
          static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
        const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
        const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
        residuals[i] = geom::wrapToPi(e.relPhase - predicted);
        centroids[static_cast<size_t>(e.group)] +=
            std::polar(1.0, residuals[i]);
      }
      std::vector<double> center(static_cast<size_t>(groupCount_), 0.0);
      for (size_t g = 0; g < center.size(); ++g) {
        if (std::abs(centroids[g]) > 0.0) center[g] = std::arg(centroids[g]);
      }
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const double centred = geom::wrapToPi(
            residuals[i] - center[static_cast<size_t>(e.group)]);
        const double w = std::exp(-centred * centred * inv2Sigma2);
        sums[static_cast<size_t>(e.group)] +=
            w * std::polar(1.0, residuals[i]);
      }
    }

    double total = 0.0;
    for (const std::complex<double>& s : sums) total += std::abs(s);
    return total / static_cast<double>(entries_.size());
  }

  /// The old PowerProfile::weightStats: (mean weight, effective fraction).
  std::pair<double, double> weightStats(double phi, double gamma) const {
    if (config_.formula != ProfileFormula::kEnhancedR || entries_.empty()) {
      return {1.0, 1.0};
    }
    const double cg = std::cos(gamma);
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
    std::vector<double> residuals(entries_.size());
    std::vector<std::complex<double>> centroids(
        static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
      const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
      const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
      residuals[i] = geom::wrapToPi(e.relPhase - predicted);
      centroids[static_cast<size_t>(e.group)] +=
          std::polar(1.0, residuals[i]);
    }
    std::vector<double> center(static_cast<size_t>(groupCount_), 0.0);
    for (size_t g = 0; g < center.size(); ++g) {
      if (std::abs(centroids[g]) > 0.0) center[g] = std::arg(centroids[g]);
    }
    double sum = 0.0, sumSq = 0.0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double centred = geom::wrapToPi(
          residuals[i] - center[static_cast<size_t>(entries_[i].group)]);
      const double w = std::exp(-centred * centred * inv2Sigma2);
      sum += w;
      sumSq += w * w;
    }
    const double n = static_cast<double>(entries_.size());
    return {sum / n, sumSq > 0.0 ? (sum * sum) / (n * sumSq) : 0.0};
  }

  /// Not part of the old code: how steeply R depends on the groups'
  /// circular-mean centres.  A shift d of group g's centre changes weight
  /// w_i by the factor exp(2 c_i d K) to first order (c_i the centred
  /// residual, K = 1/(2 sigma^2)), so R moves by about d times this value
  /// relative: the groups' weight-averaged 2|c_i|K, each weighted by its
  /// share of R.  0 for P and Q, which carry no weights.
  double centreSensitivity(double phi, double gamma) const {
    if (config_.formula != ProfileFormula::kEnhancedR) return 0.0;
    const double cg = std::cos(gamma);
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
    const size_t groups = static_cast<size_t>(groupCount_);
    std::vector<double> residuals(entries_.size());
    std::vector<std::complex<double>> centroids(groups);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
      const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
      const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
      residuals[i] = geom::wrapToPi(e.relPhase - predicted);
      centroids[static_cast<size_t>(e.group)] +=
          std::polar(1.0, residuals[i]);
    }
    std::vector<std::complex<double>> sums(groups);
    std::vector<double> weight(groups, 0.0), slope(groups, 0.0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const size_t g = static_cast<size_t>(entries_[i].group);
      const double center =
          std::abs(centroids[g]) > 0.0 ? std::arg(centroids[g]) : 0.0;
      const double centred = geom::wrapToPi(residuals[i] - center);
      const double w = std::exp(-centred * centred * inv2Sigma2);
      sums[g] += w * std::polar(1.0, residuals[i]);
      weight[g] += w;
      slope[g] += w * 2.0 * std::abs(centred) * inv2Sigma2;
    }
    double total = 0.0, sensitivity = 0.0;
    for (size_t g = 0; g < groups; ++g) {
      total += std::abs(sums[g]);
      if (weight[g] > 0.0) {
        sensitivity += slope[g] / weight[g] * std::abs(sums[g]);
      }
    }
    return total > 0.0 ? sensitivity / total : 0.0;
  }

 private:
  struct Entry {
    double cosA = 0.0;
    double sinA = 0.0;
    double cosRef = 0.0;
    double sinRef = 0.0;
    double k = 0.0;         // 4*pi/lambda_i
    double relPhase = 0.0;  // theta_i - theta_0 of its channel group
    int group = 0;          // channel-group index
  };

  ProfileConfig config_;
  double radius_ = 0.0;
  double sigmaPair_ = 0.0;
  int groupCount_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace tagspin::core::testing
