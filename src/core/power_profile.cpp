#include "core/power_profile.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <stdexcept>
#include <string>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"

// The kernel's integer parts come from the bit pattern of x + 1.5*2^52,
// which rounds x to an integer only under strict IEEE double arithmetic.
#ifdef __FAST_MATH__
#error "-ffast-math folds the kernel's 1.5*2^52 rounding shifter away"
#endif
#if FLT_EVAL_METHOD != 0
#error "power_profile.cpp needs doubles evaluated in double precision"
#endif

namespace tagspin::core {
namespace {

// ---- Inline branch-free math for the kernel (DESIGN.md, "Spectrum
// kernel").  Plain arithmetic and bit operations only, so the lane loops
// below vectorize without intrinsics.  Always inlined, so each per-level
// entry point compiles them at its own instruction-set level.

constexpr double kShifter = 0x1.8p52;  // 1.5 * 2^52

/// round-half-even(x) for |x| < 2^51, as a double and as the integer's
/// two's-complement bits (unsigned, so every operation on them is defined
/// and vectorizes).
struct Rounded {
  double value;
  uint64_t integer;
};

[[gnu::always_inline]] inline Rounded roundShift(double x) {
  const double t = x + kShifter;
  return {t - kShifter,
          std::bit_cast<uint64_t>(t) - std::bit_cast<uint64_t>(kShifter)};
}

/// All ones where `flag` (0 or 1) is set.  Selects are written as bit
/// masks: a floating-point ?: keeps GCC from vectorizing the lane loops
/// under its default -ftrapping-math.
[[gnu::always_inline]] inline uint64_t maskOf(uint64_t flag) {
  return uint64_t{0} - flag;
}

[[gnu::always_inline]] inline double select(uint64_t mask, double ifSet,
                                            double ifClear) {
  return std::bit_cast<double>((std::bit_cast<uint64_t>(ifSet) & mask) |
                               (std::bit_cast<uint64_t>(ifClear) & ~mask));
}

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kInvTwoPi = 1.0 / kTwoPi;
// kTwoPi = kTwoPiHi + kTwoPiLo exactly; n * kTwoPiHi is exact for
// |n| < 2^22 (kTwoPiHi has 31 significant bits).
constexpr double kTwoPiHi = 0x1.921fb544p+2;
constexpr double kTwoPiLo = kTwoPi - kTwoPiHi;

/// geom::wrapToPi, bit for bit away from the +-pi seam, for
/// |x| < 2^22 turns.  x - n*2pi with n = round(x / 2pi) is exact here, as
/// fmod is; wrapToPi then maps a negative input that lands in (-pi, 0)
/// through (r + 2pi) - 2pi, which rounds, and so does this.  The weights
/// need that rounding: with phaseNoiseStd = 1e-3 one ulp of residual moves
/// a weight by ~1e-11 relative.
[[gnu::always_inline]] inline double wrapPhase(double x) {
  const double n = roundShift(x * kInvTwoPi).value;
  const double y = (x - n * kTwoPiHi) - n * kTwoPiLo;
  const double viaPositive = (y + kTwoPi) - kTwoPi;
  const uint64_t bothNegative =
      (std::bit_cast<uint64_t>(x) & std::bit_cast<uint64_t>(y)) >> 63;
  return select(maskOf(bothNegative), viaPositive, y);
}

/// fdlibm's __kernel_sin (iy = 1) on [-pi/4, pi/4] for the reduced
/// argument x + y.
[[gnu::always_inline]] inline double kernelSin(double x, double y) {
  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  const double z = x * x;
  const double w = z * z;
  const double r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
  const double v = z * x;
  return x - ((z * (0.5 * y - v * r) - y) - v * S1);
}

/// fdlibm's __kernel_cos on [-pi/4, pi/4] for the reduced argument x + y.
[[gnu::always_inline]] inline double kernelCos(double x, double y) {
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;
  const double z = x * x;
  const double w = z * z;
  const double r =
      z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
  const double hz = 0.5 * z;
  const double v = 1.0 - hz;
  return v + (((1.0 - v) - hz) + (z * r - x * y));
}

// pi/2 = kPio2Hi + kPio2Lo (fdlibm's pio2_1, pio2_1t); n * kPio2Hi is
// exact for |n| < 2^20.
constexpr double kInvPio2 = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;
constexpr double kPio2Lo = 6.07710050650619224932e-11;

/// sin and cos of x, |x| < 2^20 * pi/2: a two-constant quadrant reduction
/// (fdlibm's medium path without its cancellation retry) and the fdlibm
/// kernels, the quadrant applied by swapping and sign-flipping bits.
[[gnu::always_inline]] inline void sinCos(double x, double& s, double& c) {
  const Rounded q = roundShift(x * kInvPio2);
  const double hi = x - q.value * kPio2Hi;  // exact
  const double lo = q.value * kPio2Lo;
  const double r = hi - lo;
  const double tail = (hi - r) - lo;
  const uint64_t sinBits = std::bit_cast<uint64_t>(kernelSin(r, tail));
  const uint64_t cosBits = std::bit_cast<uint64_t>(kernelCos(r, tail));
  const uint64_t n = q.integer;
  const uint64_t swap = maskOf(n & 1);  // odd quadrant: swap
  s = std::bit_cast<double>(((sinBits & ~swap) | (cosBits & swap)) ^
                            ((n & 2) << 62));
  c = std::bit_cast<double>(((cosBits & ~swap) | (sinBits & swap)) ^
                            (((n + 1) & 2) << 62));
}

/// e^x for x <= 0 (the likelihood weights), returning exactly 0 wherever
/// std::exp underflows to 0 and NaN for NaN.  x = k ln2 + r with
/// |r| <= ln2/2, e^r by its Taylor series to r^13 (truncation < 2^-57),
/// and 2^k applied as two normal factors so a subnormal result rounds
/// once.
[[gnu::always_inline]] inline double expKernel(double x) {
  constexpr double kLog2e = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 bits
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // |x| > 1000 (but not NaN) becomes -1000: e^-1000 == 0, and k stays in
  // range.
  constexpr uint64_t kLimit = std::bit_cast<uint64_t>(1000.0);
  constexpr uint64_t kInf = std::bit_cast<uint64_t>(
      std::numeric_limits<double>::infinity());
  const uint64_t magnitude = std::bit_cast<uint64_t>(x) & (kInf | (kInf - 1));
  const uint64_t beyond =
      ((kLimit - magnitude) >> 63) & (((magnitude - kInf - 1) >> 63));
  x = select(maskOf(beyond), -1000.0, x);
  const Rounded k = roundShift(x * kLog2e);
  const double r = (x - k.value * kLn2Hi) - k.value * kLn2Lo;
  // q = (e^r - 1 - r) / r^2 = sum_k r^k / (k + 2)!, k = 0..11, by
  // Estrin's scheme: short dependency chains, so the lanes overlap.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double a0 = 0.5 + r * (1.0 / 6.0);
  const double a1 = 1.0 / 24.0 + r * (1.0 / 120.0);
  const double a2 = 1.0 / 720.0 + r * (1.0 / 5040.0);
  const double a3 = 1.0 / 40320.0 + r * (1.0 / 362880.0);
  const double a4 = 1.0 / 3628800.0 + r * (1.0 / 39916800.0);
  const double a5 = 1.0 / 479001600.0 + r * (1.0 / 6227020800.0);
  const double b0 = a0 + r2 * a1;
  const double b1 = a2 + r2 * a3;
  const double b2 = a4 + r2 * a5;
  const double q = (b0 + r4 * b1) + r8 * b2;
  const double p = 1.0 + (r + r2 * q);
  // k1 = k >> 1 (arithmetic), k2 = k - k1; both in [-722, 0].
  const uint64_t k1 = (k.integer >> 1) | (k.integer & (uint64_t{1} << 63));
  const uint64_t k2 = k.integer - k1;
  const double scale1 = std::bit_cast<double>((k1 + 1023) << 52);
  const double scale2 = std::bit_cast<double>((k2 + 1023) << 52);
  return (p * scale1) * scale2;
}

/// Per-thread residual scratch for the enhanced profile, so concurrent
/// const calls on one profile share nothing.
double* residualScratch(size_t size) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

constexpr size_t kLanes = 8;

}  // namespace

PowerProfile::PowerProfile(std::span<const Snapshot> snapshots,
                           const RigKinematics& kinematics,
                           const ProfileConfig& config)
    : config_(config),
      sigmaPair_(config.phaseNoiseStd * std::numbers::sqrt2 *
                 config.weightSigmaScale) {
  // Every check is written so NaN fails it: a NaN read would poison its
  // whole channel group's sum.
  if (snapshots.size() < 2) {
    throw std::invalid_argument("PowerProfile: need at least 2 snapshots");
  }
  if (!(kinematics.radiusM > 0.0) || !std::isfinite(kinematics.radiusM)) {
    throw std::invalid_argument(
        "PowerProfile: rig radius must be > 0 and finite");
  }
  if (!(config.phaseNoiseStd > 0.0) || !std::isfinite(config.phaseNoiseStd)) {
    throw std::invalid_argument(
        "PowerProfile: phaseNoiseStd must be > 0 and finite");
  }

  const bool classical = config.formula == ProfileFormula::kClassicalP;
  const bool grouped = config.channelCoherent && !classical;
  const size_t n = snapshots.size();

  // Counting pass: the first snapshot of each channel group serves as the
  // group's phase reference (the paper's theta_0); groups are numbered in
  // order of first appearance.
  std::map<int, size_t> groupOfChannel;
  std::vector<double> refPhase;
  std::vector<size_t> groupOf(n);
  std::vector<size_t> counts;
  for (size_t i = 0; i < n; ++i) {
    const Snapshot& s = snapshots[i];
    if (!(s.lambdaM > 0.0) || !std::isfinite(s.lambdaM)) {
      throw std::invalid_argument(
          "PowerProfile: snapshot missing wavelength (lambda must be > 0 "
          "and finite)");
    }
    if (!std::isfinite(s.timeS) || !std::isfinite(s.phaseRad)) {
      throw std::invalid_argument(
          "PowerProfile: snapshot time and phase must be finite");
    }
    const auto [it, inserted] =
        groupOfChannel.try_emplace(grouped ? s.channel : 0, counts.size());
    if (inserted) {
      const double a0 = kinematics.diskAngle(s.timeS);
      refPhase.push_back(s.phaseRad);
      refCos_.push_back(std::cos(a0));
      refSin_.push_back(std::sin(a0));
      counts.push_back(0);
    }
    groupOf[i] = it->second;
    ++counts[it->second];
  }
  groupStart_.resize(counts.size() + 1);
  for (size_t g = 0; g < counts.size(); ++g) {
    groupStart_[g + 1] = groupStart_[g] + counts[g];
  }

  // Placement pass: each entry goes to the next free slot of its group, so
  // a group keeps the snapshots' original order.
  cosA_.resize(n);
  sinA_.resize(n);
  kr_.resize(n);
  relPhase_.resize(n);
  std::vector<size_t> next(groupStart_.begin(), groupStart_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const Snapshot& s = snapshots[i];
    const size_t g = groupOf[i];
    const size_t slot = next[g]++;
    const double a = kinematics.diskAngle(s.timeS);
    cosA_[slot] = std::cos(a);
    sinA_[slot] = std::sin(a);
    kr_[slot] = 4.0 * std::numbers::pi / s.lambdaM * kinematics.radiusM;
    relPhase_[slot] =
        classical ? s.phaseRad : geom::wrapToPi(s.phaseRad - refPhase[g]);
  }
}

template <size_t L>
void PowerProfile::evaluateBlock(const double* angles, double scale,
                                 double* out, WeightSums* sums) const {
  const bool enhanced = config_.formula == ProfileFormula::kEnhancedR;
  double cosPhi[L];
  double sinPhi[L];
  double total[L];
  for (size_t l = 0; l < L; ++l) {
    cosPhi[l] = std::cos(angles[l]);
    sinPhi[l] = std::sin(angles[l]);
    total[l] = 0.0;
  }
  size_t largestGroup = 0;
  for (size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    largestGroup = std::max(largestGroup, groupStart_[g + 1] - groupStart_[g]);
  }
  double* const scratch =
      enhanced ? residualScratch(3 * L * largestGroup) : nullptr;
  const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
  double weightSum = 0.0;
  double weightSumSq = 0.0;

  for (size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    const size_t begin = groupStart_[g];
    const size_t end = groupStart_[g + 1];
    double re[L] = {};
    double im[L] = {};
    if (!enhanced) {
      for (size_t i = begin; i < end; ++i) {
        const double ca = cosA_[i];
        const double sa = sinA_[i];
        const double kr = kr_[i];
        const double rel = relPhase_[i];
        for (size_t l = 0; l < L; ++l) {
          // cos(a_i - phi) from the precomputed components.
          const double cosAmP = ca * cosPhi[l] + sa * sinPhi[l];
          const double steer = kr * cosAmP * scale;
          double s;
          double c;
          sinCos(rel + steer, s, c);
          re[l] += c;
          im[l] += s;
        }
      }
    } else {
      // Enhanced profile R.  Each snapshot's residual against the steering
      // prediction c_i(phi, gamma) (Defn. 4.1 / 5.1) is Gaussian-weighted.
      // Two refinements over the literal formula, both documented in
      // DESIGN.md:
      //  * residuals are wrapped to (-pi, pi] (|c_i| exceeds 2*pi for
      //    r > lambda/4);
      //  * residuals are centred on their per-group circular mean before
      //    weighting.  The paper weights around zero, implicitly trusting
      //    the reference snapshot theta_0; one corrupted reference read
      //    would shift every residual by a constant and bias the weights
      //    toward a false direction that absorbs the shift.  Centring
      //    restores the reference-independence that Q enjoys through |.|.
      // The first pass stores each residual and its phasor; the second
      // weights the stored phasors.  Entry i's lanes live at
      // scratch[3L(i - begin) ...]: residuals, then cos, then sin.
      double cosRefMinusPhi[L];
      double centroidRe[L] = {};
      double centroidIm[L] = {};
      for (size_t l = 0; l < L; ++l) {
        cosRefMinusPhi[l] = refCos_[g] * cosPhi[l] + refSin_[g] * sinPhi[l];
      }
      for (size_t i = begin; i < end; ++i) {
        double* const slot = scratch + 3 * L * (i - begin);
        const double ca = cosA_[i];
        const double sa = sinA_[i];
        const double krScale = kr_[i] * scale;
        const double rel = relPhase_[i];
        for (size_t l = 0; l < L; ++l) {
          const double cosAmP = ca * cosPhi[l] + sa * sinPhi[l];
          const double predicted = krScale * (cosRefMinusPhi[l] - cosAmP);
          const double r = wrapPhase(rel - predicted);
          double s;
          double c;
          sinCos(r, s, c);
          slot[l] = r;
          slot[L + l] = c;
          slot[2 * L + l] = s;
          centroidRe[l] += c;
          centroidIm[l] += s;
        }
      }
      double center[L];
      for (size_t l = 0; l < L; ++l) {
        center[l] = std::hypot(centroidRe[l], centroidIm[l]) > 0.0
                        ? std::atan2(centroidIm[l], centroidRe[l])
                        : 0.0;
      }
      for (size_t i = begin; i < end; ++i) {
        const double* const slot = scratch + 3 * L * (i - begin);
        double w[L];
        for (size_t l = 0; l < L; ++l) {
          const double centred = wrapPhase(slot[l] - center[l]);
          w[l] = expKernel(-centred * centred * inv2Sigma2);
          // e^{J(relPhase + steer)} = e^{J(residual)} *
          // e^{J k r cg cos(a_0-phi)} and the group-constant factor drops
          // under |.|, so sum residual phasors directly.
          re[l] += w[l] * slot[L + l];
          im[l] += w[l] * slot[2 * L + l];
        }
        weightSum += w[0];
        weightSumSq += w[0] * w[0];
      }
    }
    for (size_t l = 0; l < L; ++l) total[l] += std::hypot(re[l], im[l]);
  }
  const double n = static_cast<double>(snapshotCount());
  for (size_t l = 0; l < L; ++l) out[l] = total[l] / n;
  if (sums != nullptr) *sums = {weightSum, weightSumSq};
}

void PowerProfile::evaluateAll(const double* angles, size_t count,
                               double scale, double* out,
                               WeightSums* sums) const {
  if (count == 1 || sums != nullptr) {
    evaluateBlock<1>(angles, scale, out, sums);
    return;
  }
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    evaluateBlock<kLanes>(angles + i, scale, out + i, nullptr);
  }
  if (i < count) {
    // Tail block, padded with copies of the last angle.
    const size_t rest = count - i;
    double padded[kLanes];
    double values[kLanes];
    for (size_t l = 0; l < kLanes; ++l) {
      padded[l] = angles[i + (l < rest ? l : rest - 1)];
    }
    evaluateBlock<kLanes>(padded, scale, values, nullptr);
    for (size_t l = 0; l < rest; ++l) out[i + l] = values[l];
  }
}

// ---- Dispatch (DESIGN.md, "Dispatch").  Three thin entry points inline
// the one kernel body, each at its own instruction-set level; the build
// compiles this file with -ffp-contract=off, so the AVX2 and AVX-512
// entries cannot fuse a multiply-add that the baseline entry rounds twice.
// Only x86-64 GCC builds get the wider entries.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TAGSPIN_KERNEL_DISPATCH 1
#else
#define TAGSPIN_KERNEL_DISPATCH 0
#endif

struct PowerProfile::Kernel {
  using Entry = void (*)(const PowerProfile&, const double*, size_t, double,
                         double*, WeightSums*);

  static void baseline(const PowerProfile& p, const double* angles,
                       size_t count, double scale, double* out,
                       WeightSums* sums) {
    p.evaluateAll(angles, count, scale, out, sums);
  }
#if TAGSPIN_KERNEL_DISPATCH
  [[gnu::target("arch=x86-64-v3")]] static void v3(
      const PowerProfile& p, const double* angles, size_t count, double scale,
      double* out, WeightSums* sums) {
    p.evaluateAll(angles, count, scale, out, sums);
  }
  [[gnu::target("arch=x86-64-v4")]] static void v4(
      const PowerProfile& p, const double* angles, size_t count, double scale,
      double* out, WeightSums* sums) {
    p.evaluateAll(angles, count, scale, out, sums);
  }
#endif

  static Entry entry(KernelIsa isa) {
    if (!kernelIsaSupported(isa)) {
      throw std::invalid_argument(std::string("PowerProfile: kernel level ") +
                                  kernelIsaName(isa) +
                                  " is not supported here");
    }
#if TAGSPIN_KERNEL_DISPATCH
    if (isa == KernelIsa::kX86_64_V4) return v4;
    if (isa == KernelIsa::kX86_64_V3) return v3;
#endif
    return baseline;
  }
};

namespace {

KernelIsa detectKernelIsa() {
#if TAGSPIN_KERNEL_DISPATCH
  // libgcc's checks include the OS saving the YMM/ZMM state.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return KernelIsa::kX86_64_V4;
  if (__builtin_cpu_supports("x86-64-v3")) return KernelIsa::kX86_64_V3;
#endif
  return KernelIsa::kBaseline;
}

}  // namespace

KernelIsa activeKernelIsa() {
  static const KernelIsa isa = detectKernelIsa();
  return isa;
}

bool kernelIsaSupported(KernelIsa isa) {
  // Each level includes the one below it.
  return static_cast<int>(isa) <= static_cast<int>(activeKernelIsa());
}

const char* kernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kX86_64_V3:
      return "x86-64-v3";
    case KernelIsa::kX86_64_V4:
      return "x86-64-v4";
    case KernelIsa::kBaseline:
      break;
  }
  return "baseline";
}

void PowerProfile::evaluateGrid(std::span<const double> angles, double scale,
                                std::span<double> out) const {
  evaluateGridOn(activeKernelIsa(), angles, scale, out);
}

void PowerProfile::evaluateGridOn(KernelIsa isa,
                                  std::span<const double> angles,
                                  double scale, std::span<double> out) const {
  if (angles.size() != out.size()) {
    throw std::invalid_argument(
        "PowerProfile::evaluateGrid: angles and out differ in size");
  }
  Kernel::entry(isa)(*this, angles.data(), angles.size(), scale, out.data(),
                     nullptr);
}

double PowerProfile::evaluate(double phi, double gamma) const {
  return evaluateDirection(phi, std::cos(gamma));
}

double PowerProfile::evaluateDirection(double angle, double scale) const {
  double value = 0.0;
  evaluateGrid({&angle, 1}, scale, {&value, 1});
  return value;
}

PowerProfile::WeightStats PowerProfile::weightStats(double phi,
                                                    double gamma) const {
  return weightStatsOn(activeKernelIsa(), phi, gamma);
}

PowerProfile::WeightStats PowerProfile::weightStatsOn(KernelIsa isa,
                                                      double phi,
                                                      double gamma) const {
  const Kernel::Entry entry = Kernel::entry(isa);
  WeightStats stats;
  if (config_.formula != ProfileFormula::kEnhancedR) return stats;
  WeightSums sums;
  double value = 0.0;
  entry(*this, &phi, 1, std::cos(gamma), &value, &sums);
  const double n = static_cast<double>(snapshotCount());
  stats.meanWeight = sums.sum / n;
  stats.effectiveFraction =
      sums.sumSq > 0.0 ? (sums.sum * sums.sum) / (n * sums.sumSq) : 0.0;
  return stats;
}

std::vector<double> PowerProfile::sampleAzimuth(size_t points,
                                                double gamma) const {
  const std::vector<double> angles = dsp::circularGrid(points);
  std::vector<double> out(points);
  evaluateGrid(angles, std::cos(gamma), out);
  return out;
}

}  // namespace tagspin::core
