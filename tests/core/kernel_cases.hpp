// The seeded snapshot sets the spectrum kernel's differential tests run
// on (profile_kernel_test, rect_scan_test): every formula x coherence x
// channel count x snapshot count, with the direction, wavelength, noise,
// radius and phase model drawn per set.
#pragma once

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"
#include "geom/angles.hpp"

namespace tagspin::core::testing {

struct KernelCase {
  ProfileFormula formula = ProfileFormula::kEnhancedR;
  bool channelCoherent = true;
  int channels = 1;
  size_t count = 2;
  double gamma = 0.0;
  double lambdaM = 0.325;
  double phaseNoiseStd = 0.1;
  double radiusM = 0.1;
  bool modelPhases = false;  // phases from the signal model, else uniform
  uint64_t seed = 0;

  std::string describe() const {
    std::ostringstream out;
    out << "formula=" << static_cast<int>(formula)
        << " coherent=" << channelCoherent << " channels=" << channels
        << " n=" << count << " gamma=" << gamma << " lambda=" << lambdaM
        << " sigma=" << phaseNoiseStd << " r=" << radiusM
        << " model=" << modelPhases << " seed=" << seed;
    return out.str();
  }

  ProfileConfig profileConfig() const {
    ProfileConfig pc;
    pc.formula = formula;
    pc.channelCoherent = channelCoherent;
    pc.phaseNoiseStd = phaseNoiseStd;
    return pc;
  }

  RigKinematics kinematics() const {
    return {radiusM, 0.5 + 0.1 * static_cast<double>(seed % 7),
            0.3 * static_cast<double>(seed % 11), geom::kPi / 2.0};
  }
};

/// Every formula x coherence x channel count x snapshot count, with the
/// direction, wavelength, noise, radius and phase model drawn per case.
inline std::vector<KernelCase> kernelCases() {
  const ProfileFormula formulas[] = {ProfileFormula::kClassicalP,
                                     ProfileFormula::kRelativeQ,
                                     ProfileFormula::kEnhancedR};
  const int channels[] = {1, 2, 16};
  const size_t counts[] = {2, 3, 7, 9, 400, 1250};
  const double gammas[] = {0.0, 0.3, -0.3, 1.5, -1.5};
  const double lambdas[] = {1e-3, 0.0125, 0.325, 3.0, 1e3};
  const double sigmas[] = {1e-3, 1e-2, 0.1, 0.5};
  const double radii[] = {0.01, 0.1, 0.5};
  std::vector<KernelCase> cases;
  uint64_t seed = 0;
  for (size_t count : counts) {
    for (ProfileFormula formula : formulas) {
      for (bool coherent : {true, false}) {
        for (int ch : channels) {
          std::mt19937_64 rng(++seed);
          KernelCase c;
          c.formula = formula;
          c.channelCoherent = coherent;
          c.channels = ch;
          c.count = count;
          c.gamma = gammas[rng() % 5];
          c.lambdaM = lambdas[rng() % 5];
          c.phaseNoiseStd = sigmas[rng() % 4];
          c.radiusM = radii[rng() % 3];
          c.modelPhases = rng() % 2 == 0;
          c.seed = seed;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

inline std::vector<Snapshot> randomSnapshots(const KernelCase& c) {
  std::mt19937_64 rng(c.seed * 7919);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> noise(0.0, c.phaseNoiseStd);
  const RigKinematics kin = c.kinematics();
  const double phiTrue = geom::kTwoPi * unit(rng);
  const double cg = std::cos(c.gamma);
  std::vector<Snapshot> snaps(c.count);
  for (Snapshot& s : snaps) {
    const int channel =
        static_cast<int>(rng() % static_cast<uint64_t>(c.channels));
    s.channel = 3 * channel + 1;
    s.lambdaM = c.lambdaM * (1.0 + 0.004 * channel);
    s.timeS = 30.0 * unit(rng);
    if (c.modelPhases) {
      const double d =
          2.0 - kin.radiusM * std::cos(kin.diskAngle(s.timeS) - phiTrue) * cg;
      s.phaseRad = geom::wrapTwoPi(4.0 * geom::kPi / s.lambdaM * d +
                                   0.7 * channel + noise(rng));
    } else {
      s.phaseRad = geom::kTwoPi * unit(rng);
    }
  }
  return snaps;
}

}  // namespace tagspin::core::testing
