#include "core/hologram.hpp"

#include <cmath>
#include <complex>
#include <map>
#include <stdexcept>

#include "geom/angles.hpp"

namespace tagspin::core {

namespace {

/// locate(): the coarse pass's grid step, then halving 8-neighbour rounds.
constexpr double kCoarseStepM = 0.05;
constexpr int kRefineRounds = 8;

}  // namespace

Hologram::Hologram(std::span<const RigObservation> observations,
                   HologramConfig config)
    : config_(config) {
  if (config.xMax <= config.xMin || config.yMax <= config.yMin) {
    throw std::invalid_argument("Hologram: bad search grid");
  }
  int nextGroup = 0;
  for (size_t r = 0; r < observations.size(); ++r) {
    const RigObservation& obs = observations[r];
    struct Ref {
      int group;
      double phase;
      double k;
      geom::Vec3 tagPos;
    };
    std::map<int, Ref> refs;
    for (const Snapshot& s : obs.snapshots) {
      if (s.lambdaM <= 0.0) {
        throw std::invalid_argument("Hologram: snapshot missing wavelength");
      }
      const double a = obs.rig.kinematics.diskAngle(s.timeS);
      const geom::Vec3 tagPos =
          obs.rig.center +
          geom::Vec3{obs.rig.kinematics.radiusM * std::cos(a),
                     obs.rig.kinematics.radiusM * std::sin(a), 0.0};
      const double k = 4.0 * geom::kPi / s.lambdaM;
      auto [it, inserted] =
          refs.try_emplace(s.channel, Ref{nextGroup, s.phaseRad, k, tagPos});
      if (inserted) ++nextGroup;

      Entry e;
      e.tagPos = tagPos;
      e.k = k;
      e.relPhase = geom::wrapToPi(s.phaseRad - it->second.phase);
      e.refK = it->second.k;
      e.refTagPos = it->second.tagPos;
      e.group = it->second.group;
      entries_.push_back(e);
    }
  }
  groupCount_ = nextGroup;
  if (entries_.size() < 4) {
    throw std::invalid_argument("Hologram: too few snapshots");
  }
}

double Hologram::intensity(const geom::Vec2& candidate) const {
  const geom::Vec3 p{candidate.x, candidate.y,
                     entries_.front().refTagPos.z};
  std::vector<std::complex<double>> sums(
      static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});
  std::vector<int> counts(static_cast<size_t>(groupCount_), 0);
  for (const Entry& e : entries_) {
    // Exact round-trip relative phase the candidate predicts.
    const double predicted = e.k * geom::distance(e.tagPos, p) -
                             e.refK * geom::distance(e.refTagPos, p);
    sums[static_cast<size_t>(e.group)] +=
        std::polar(1.0, e.relPhase - predicted);
    counts[static_cast<size_t>(e.group)] += 1;
  }
  if (config_.multiplicative) {
    // Size-weighted geometric mean of per-group coherence.
    double logAcc = 0.0;
    int total = 0;
    for (size_t g = 0; g < sums.size(); ++g) {
      if (counts[g] == 0) continue;
      const double score =
          std::max(std::abs(sums[g]) / static_cast<double>(counts[g]), 1e-9);
      logAcc += static_cast<double>(counts[g]) * std::log(score);
      total += counts[g];
    }
    return total > 0 ? std::exp(logAcc / static_cast<double>(total)) : 0.0;
  }
  double acc = 0.0;
  int total = 0;
  for (size_t g = 0; g < sums.size(); ++g) {
    acc += std::abs(sums[g]);
    total += counts[g];
  }
  return total > 0 ? acc / static_cast<double>(total) : 0.0;
}

Fix2D Hologram::locate() const {
  geom::Vec2 best{config_.xMin, config_.yMin};
  double bestV = intensity(best);
  for (double x = config_.xMin; x <= config_.xMax; x += kCoarseStepM) {
    for (double y = config_.yMin; y <= config_.yMax; y += kCoarseStepM) {
      const double v = intensity({x, y});
      if (v > bestV) {
        bestV = v;
        best = {x, y};
      }
    }
  }
  double h = kCoarseStepM / 2.0;
  for (int round = 0; round < kRefineRounds; ++round) {
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        const geom::Vec2 p{best.x + dx * h, best.y + dy * h};
        const double v = intensity(p);
        if (v > bestV) {
          bestV = v;
          best = p;
        }
      }
    }
    h /= 2.0;
  }
  Fix2D fix;
  fix.position = best;
  fix.residualM = 0.0;
  return fix;
}

std::vector<std::vector<double>> Hologram::sample(size_t nx,
                                                  size_t ny) const {
  std::vector<std::vector<double>> img(ny, std::vector<double>(nx, 0.0));
  for (size_t iy = 0; iy < ny; ++iy) {
    const double y = config_.yMin + (config_.yMax - config_.yMin) *
                                        static_cast<double>(iy) /
                                        static_cast<double>(ny - 1);
    for (size_t ix = 0; ix < nx; ++ix) {
      const double x = config_.xMin + (config_.xMax - config_.xMin) *
                                          static_cast<double>(ix) /
                                          static_cast<double>(nx - 1);
      img[iy][ix] = intensity({x, y});
    }
  }
  return img;
}

}  // namespace tagspin::core
