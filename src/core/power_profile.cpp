#include "core/power_profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/kernel_math.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {
namespace {

using kernel::FloatScanError;

/// Per-thread residual scratch for the enhanced profile, so concurrent
/// const calls on one profile share nothing.
template <class T>
T* residualScratch(size_t size) {
  thread_local std::vector<T> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch.data();
}

/// Directions per block: 8 doubles or 16 floats, one AVX-512 register.
template <class T>
constexpr size_t kLanes = std::is_same_v<T, float> ? 16 : 8;

/// Entries per partial sum: the float scan adds a float partial of at most
/// FloatScanError::kChunk entries to a double accumulator, so its rounding
/// grows with the chunk, not the group; double sums each group in one
/// chunk, in the order the scalar code did.
template <class T>
constexpr size_t kChunk =
    std::is_same_v<T, float> ? FloatScanError::kChunk : SIZE_MAX;

/// The end of the chunk that starts at `begin` in a group ending at `end`.
inline size_t chunkEnd(size_t begin, size_t end, size_t chunk) {
  return end - begin > chunk ? begin + chunk : end;
}

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

template <class T, size_t L>
void PowerProfile::evaluateBlock(const Call<T>& call, const double* angles,
                                 double* out, double* norms) const {
  using kernel::expKernel;
  using kernel::residualPhase;
  using kernel::sinCos;
  using kernel::steeredPhase;
  using kernel::wrapPhase;
  constexpr bool kDouble = std::is_same_v<T, double>;
  const bool enhanced = config_.formula == ProfileFormula::kEnhancedR;
  // The direction's cos/sin come from libm in double at every type.
  double cosPhi[L];
  double sinPhi[L];
  T cosPhiT[L];
  T sinPhiT[L];
  double total[L];
  for (size_t l = 0; l < L; ++l) {
    cosPhi[l] = std::cos(angles[l]);
    sinPhi[l] = std::sin(angles[l]);
    cosPhiT[l] = static_cast<T>(cosPhi[l]);
    sinPhiT[l] = static_cast<T>(sinPhi[l]);
    total[l] = 0.0;
  }
  size_t largestGroup = 0;
  for (size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    largestGroup = std::max(largestGroup, groupStart_[g + 1] - groupStart_[g]);
  }
  T* const scratch =
      enhanced ? residualScratch<T>(3 * L * largestGroup) : nullptr;
  const T inv2Sigma2 = static_cast<T>(1.0 / (2.0 * sigmaPair_ * sigmaPair_));
  const T scale = static_cast<T>(call.scale);
  double weightSum = 0.0;
  double weightSumSq = 0.0;

  for (size_t g = 0; g + 1 < groupStart_.size(); ++g) {
    const size_t begin = groupStart_[g];
    const size_t end = groupStart_[g + 1];
    double re[L] = {};
    double im[L] = {};
    if (!enhanced) {
      for (size_t chunk = begin; chunk < end;) {
        const size_t stop = chunkEnd(chunk, end, kChunk<T>);
        T partRe[L] = {};
        T partIm[L] = {};
        for (size_t i = chunk; i < stop; ++i) {
          const T ca = call.cosA[i];
          const T sa = call.sinA[i];
          const T kr = call.kr[i];
          const T rel = call.relPhase[i];
          for (size_t l = 0; l < L; ++l) {
            T s;
            T c;
            sinCos(steeredPhase(rel, kr, ca, sa, cosPhiT[l], sinPhiT[l], scale),
                   s, c);
            partRe[l] += c;
            partIm[l] += s;
          }
        }
        for (size_t l = 0; l < L; ++l) {
          re[l] += partRe[l];
          im[l] += partIm[l];
        }
        chunk = stop;
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
      T cosRefMinusPhi[L];
      double centroidRe[L] = {};
      double centroidIm[L] = {};
      for (size_t l = 0; l < L; ++l) {
        cosRefMinusPhi[l] = static_cast<T>(refCos_[g] * cosPhi[l] +
                                           refSin_[g] * sinPhi[l]);
      }
      for (size_t chunk = begin; chunk < end;) {
        const size_t stop = chunkEnd(chunk, end, kChunk<T>);
        T partRe[L] = {};
        T partIm[L] = {};
        for (size_t i = chunk; i < stop; ++i) {
          T* const slot = scratch + 3 * L * (i - begin);
          const T ca = call.cosA[i];
          const T sa = call.sinA[i];
          const T krScale = call.kr[i] * scale;
          const T rel = call.relPhase[i];
          for (size_t l = 0; l < L; ++l) {
            const T r = wrapPhase(residualPhase(rel, krScale, ca, sa,
                                                cosPhiT[l], sinPhiT[l],
                                                cosRefMinusPhi[l]));
            T s;
            T c;
            sinCos(r, s, c);
            slot[l] = r;
            slot[L + l] = c;
            slot[2 * L + l] = s;
            partRe[l] += c;
            partIm[l] += s;
          }
        }
        for (size_t l = 0; l < L; ++l) {
          centroidRe[l] += partRe[l];
          centroidIm[l] += partIm[l];
        }
        chunk = stop;
      }
      T center[L];
      for (size_t l = 0; l < L; ++l) {
        const double norm = std::hypot(centroidRe[l], centroidIm[l]);
        center[l] = static_cast<T>(
            norm > 0.0 ? std::atan2(centroidIm[l], centroidRe[l]) : 0.0);
        if (norms != nullptr) norms[g * call.normStride + l] = norm;
      }
      for (size_t chunk = begin; chunk < end;) {
        const size_t stop = chunkEnd(chunk, end, kChunk<T>);
        T partRe[L] = {};
        T partIm[L] = {};
        for (size_t i = chunk; i < stop; ++i) {
          const T* const slot = scratch + 3 * L * (i - begin);
          T w[L];
          for (size_t l = 0; l < L; ++l) {
            const T centred = wrapPhase(slot[l] - center[l]);
            w[l] = expKernel(-centred * centred * inv2Sigma2);
            // e^{J(relPhase + steer)} = e^{J(residual)} *
            // e^{J k r cg cos(a_0-phi)} and the group-constant factor drops
            // under |.|, so sum residual phasors directly.
            partRe[l] += w[l] * slot[L + l];
            partIm[l] += w[l] * slot[2 * L + l];
          }
          if constexpr (kDouble) {
            weightSum += w[0];
            weightSumSq += w[0] * w[0];
          }
        }
        for (size_t l = 0; l < L; ++l) {
          re[l] += partRe[l];
          im[l] += partIm[l];
        }
        chunk = stop;
      }
    }
    for (size_t l = 0; l < L; ++l) total[l] += std::hypot(re[l], im[l]);
  }
  const double n = static_cast<double>(snapshotCount());
  for (size_t l = 0; l < L; ++l) out[l] = total[l] / n;
  if (call.sums != nullptr) *call.sums = {weightSum, weightSumSq};
}

template <class T>
void PowerProfile::evaluateAll(const Call<T>& call) const {
  constexpr size_t kBlock = kLanes<T>;
  const size_t count = call.count;
  if (count == 1 || call.sums != nullptr) {
    evaluateBlock<T, 1>(call, call.angles, call.out, call.norms);
    return;
  }
  size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    evaluateBlock<T, kBlock>(call, call.angles + i, call.out + i,
                             call.norms != nullptr ? call.norms + i : nullptr);
  }
  if (i < count) {
    // Tail block, padded with copies of the last angle.  The scan's
    // norms rows are padded to a whole block (normStride).
    const size_t rest = count - i;
    double padded[kBlock];
    double values[kBlock];
    for (size_t l = 0; l < kBlock; ++l) {
      padded[l] = call.angles[i + (l < rest ? l : rest - 1)];
    }
    evaluateBlock<T, kBlock>(call, padded, values,
                             call.norms != nullptr ? call.norms + i : nullptr);
    for (size_t l = 0; l < rest; ++l) call.out[i + l] = values[l];
  }
}

// ---- Dispatch (DESIGN.md, "Dispatch").  Three thin entry points per value
// type inline the one kernel body, each at its own instruction-set level;
// the build compiles this file with -ffp-contract=off, so the AVX2 and
// AVX-512 entries cannot fuse a multiply-add that the baseline entry
// rounds twice.  Only x86-64 GCC builds get the wider entries.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TAGSPIN_KERNEL_DISPATCH 1
#else
#define TAGSPIN_KERNEL_DISPATCH 0
#endif

struct PowerProfile::Kernel {
  template <class T>
  using Entry = void (*)(const PowerProfile&, const Call<T>&);

  template <class T>
  static void baseline(const PowerProfile& p, const Call<T>& call) {
    p.evaluateAll(call);
  }
#if TAGSPIN_KERNEL_DISPATCH
  template <class T>
  [[gnu::target("arch=x86-64-v3")]] static void v3(const PowerProfile& p,
                                                   const Call<T>& call) {
    p.evaluateAll(call);
  }
  template <class T>
  [[gnu::target("arch=x86-64-v4")]] static void v4(const PowerProfile& p,
                                                   const Call<T>& call) {
    p.evaluateAll(call);
  }
#endif

  template <class T>
  static Entry<T> entry(KernelIsa isa) {
    if (!kernelIsaSupported(isa)) {
      throw std::invalid_argument(std::string("PowerProfile: kernel level ") +
                                  kernelIsaName(isa) +
                                  " is not supported here");
    }
#if TAGSPIN_KERNEL_DISPATCH
    if (isa == KernelIsa::kX86_64_V4) return v4<T>;
    if (isa == KernelIsa::kX86_64_V3) return v3<T>;
#endif
    return baseline<T>;
  }
};

PowerProfile::Call<double> PowerProfile::doubleCall(const double* angles,
                                                    size_t count, double scale,
                                                    double* out,
                                                    WeightSums* sums) const {
  return {cosA_.data(), sinA_.data(), kr_.data(), relPhase_.data(),
          angles,       count,        scale,      out,
          sums,         nullptr,      0};
}

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
  Kernel::entry<double>(isa)(
      *this, doubleCall(angles.data(), angles.size(), scale, out.data(),
                        nullptr));
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
  const Kernel::Entry<double> entry = Kernel::entry<double>(isa);
  WeightStats stats;
  if (config_.formula != ProfileFormula::kEnhancedR) return stats;
  WeightSums sums;
  double value = 0.0;
  entry(*this, doubleCall(&phi, 1, std::cos(gamma), &value, &sums));
  const double n = static_cast<double>(snapshotCount());
  stats.meanWeight = sums.sum / n;
  stats.effectiveFraction =
      sums.sumSq > 0.0 ? (sums.sum * sums.sum) / (n * sums.sumSq) : 0.0;
  return stats;
}

namespace {

/// The scan's per-thread state: the float copy of the entries it runs on,
/// per-group terms of the bound, and R's centroid magnitudes.  Refilled by
/// every call, so no call sees another's data.
struct ScanScratch {
  std::vector<float> cosA;
  std::vector<float> sinA;
  std::vector<float> kr;
  std::vector<float> relPhase;
  std::vector<double> relSum;     // sum |rel| per group
  std::vector<double> krSum;      // sum k r per group
  std::vector<double> phasorErr;  // bound on |float - double| group sum
  std::vector<double> groupErr;   // the group's lane-free bound
  std::vector<double> norms;      // R: |centroid|, group-major
};

ScanScratch& scanScratch() {
  thread_local ScanScratch scratch;
  return scratch;
}

/// A bound on the angle between a centroid computed as `norm`'s vector and
/// any vector within `err` of it: asin(t) <= t / sqrt(1 - t^2) <= 1.1548 t
/// for t = err / norm <= 1/2; beyond that, pi.  A NaN or zero norm gives
/// pi.  The 2^-48 covers both kernels' atan2 rounding.
double centreError(double err, double norm) {
  const double t = err / norm;
  return (t <= 0.5 ? 1.1548 * t : std::numbers::pi) + 0x1p-48;
}

}  // namespace

void PowerProfile::scanRect(std::span<const double> angles,
                            std::span<const double> scales,
                            std::span<double> values,
                            std::span<double> bounds) const {
  scanRectOn(activeKernelIsa(), angles, scales, values, bounds);
}

// The bound (DESIGN.md section 11, "Float scan"), per channel group of m
// entries, u = 2^-24, M_i = |rel_i| + 2 k_i r |scale|:
//   phase   sum_i |dtheta_i| <= u (9 sum M_i + 4 m)
//   phasor  |float group sum - double group sum| of unit phasors
//           <= phase + m sqrt2 E_sincos + sum, with
//   sum     sqrt2 m ((chunk - 1) u + m 2^-52)  (float chunks, double sums)
// Q and P: the group's error is `phasor`.  R adds the weights, through
// their slope s = e^{-1/2} / sigma_w, the centre's error dc (centreError of
// `phasor` and the group's |centroid|) and the rounding of each weight:
//   (s + 1) phase + m (s 16u + E_exp + 2u + sqrt2 E_sincos + u) + sum
//   + s m dc.
// Each group's term is capped at m (1 + 2^-16) -- both values lie in
// [0, m] up to rounding -- and the cell's bound is (1 + 2^-16) / n times
// their sum; the slack covers the double kernel's own error, which obeys
// the same derivation with u = 2^-53.
void PowerProfile::scanRectOn(KernelIsa isa, std::span<const double> angles,
                              std::span<const double> scales,
                              std::span<double> values,
                              std::span<double> bounds) const {
  using E = FloatScanError;
  const size_t cols = angles.size();
  if (values.size() != cols * scales.size() || bounds.size() != values.size()) {
    throw std::invalid_argument(
        "PowerProfile::scanRect: values and bounds must hold one entry per "
        "angle and scale");
  }
  const Kernel::Entry<float> entry = Kernel::entry<float>(isa);
  if (values.empty()) return;

  const bool enhanced = config_.formula == ProfileFormula::kEnhancedR;
  const size_t n = snapshotCount();
  const size_t groups = groupStart_.size() - 1;
  ScanScratch& s = scanScratch();
  s.cosA.resize(n);
  s.sinA.resize(n);
  s.kr.resize(n);
  s.relPhase.resize(n);
  s.relSum.assign(groups, 0.0);
  s.krSum.assign(groups, 0.0);
  s.phasorErr.resize(groups);
  s.groupErr.resize(groups);
  double maxRel = 0.0;
  double maxKr = 0.0;
  for (size_t g = 0; g < groups; ++g) {
    for (size_t i = groupStart_[g]; i < groupStart_[g + 1]; ++i) {
      s.cosA[i] = static_cast<float>(cosA_[i]);
      s.sinA[i] = static_cast<float>(sinA_[i]);
      s.kr[i] = static_cast<float>(kr_[i]);
      s.relPhase[i] = static_cast<float>(relPhase_[i]);
      s.relSum[g] += std::abs(relPhase_[i]);
      s.krSum[g] += kr_[i];
      maxRel = std::max(maxRel, std::abs(relPhase_[i]));
      maxKr = std::max(maxKr, kr_[i]);
    }
  }
  constexpr size_t kBlock = kLanes<float>;
  const size_t stride = (cols + kBlock - 1) / kBlock * kBlock;
  if (enhanced) s.norms.resize(groups * stride);

  constexpr double u = E::kUnit;
  constexpr double kSqrt2 = std::numbers::sqrt2;
  constexpr double kSlack = 1.0 + 0x1p-16;
  const double slope = std::exp(-0.5) / sigmaPair_;
  const double perEntry = slope * E::kCentredUlps * u + E::kExp +
                          E::kWeightArgUlps * u + kSqrt2 * E::kSinCos + u;
  const double toValue = kSlack / static_cast<double>(n);
  for (size_t j = 0; j < scales.size(); ++j) {
    const double aperture = 2.0 * std::abs(scales[j]);
    double* const rowValues = values.data() + j * cols;
    double* const rowBounds = bounds.data() + j * cols;
    // The lane-free part of the bound, and whether scanning can pay: the
    // one place a row is handed to the double re-check whole.
    double aPriori = 0.0;
    for (size_t g = 0; g < groups; ++g) {
      const double m = static_cast<double>(groupStart_[g + 1] - groupStart_[g]);
      const double phase =
          u * (E::kPhaseUlps * (s.relSum[g] + aperture * s.krSum[g]) +
               E::kPhaseFloorUlps * m);
      const double sum =
          kSqrt2 * m * (static_cast<double>(E::kChunk - 1) * u + m * 0x1p-52);
      s.phasorErr[g] = phase + m * kSqrt2 * E::kSinCos + sum;
      s.groupErr[g] = enhanced ? (slope + 1.0) * phase + m * perEntry + sum
                               : s.phasorErr[g];
      aPriori += std::min(m * kSlack, s.groupErr[g]);
    }
    aPriori *= toValue;
    const bool scannable =
        maxRel + aperture * maxKr <= E::kMaxPhase && aPriori < 0.5;
    if (!scannable) {
      std::fill(rowValues, rowValues + cols, 0.0);
      std::fill(rowBounds, rowBounds + cols,
                std::numeric_limits<double>::infinity());
      continue;
    }
    entry(*this, Call<float>{s.cosA.data(), s.sinA.data(), s.kr.data(),
                             s.relPhase.data(), angles.data(), cols,
                             scales[j], rowValues, nullptr,
                             enhanced ? s.norms.data() : nullptr, stride});
    if (!enhanced) {
      std::fill(rowBounds, rowBounds + cols, aPriori);
      continue;
    }
    std::fill(rowBounds, rowBounds + cols, 0.0);
    for (size_t g = 0; g < groups; ++g) {
      const double m = static_cast<double>(groupStart_[g + 1] - groupStart_[g]);
      const double* const groupNorms = s.norms.data() + g * stride;
      for (size_t i = 0; i < cols; ++i) {
        rowBounds[i] += std::min(
            m * kSlack, s.groupErr[g] + slope * m * centreError(s.phasorErr[g],
                                                               groupNorms[i]));
      }
    }
    for (size_t i = 0; i < cols; ++i) rowBounds[i] *= toValue;
  }
}

std::vector<double> PowerProfile::sampleAzimuth(size_t points,
                                                double gamma) const {
  const std::vector<double> angles = dsp::circularGrid(points);
  std::vector<double> out(points);
  evaluateGrid(angles, std::cos(gamma), out);
  return out;
}

}  // namespace tagspin::core
