// Angle power profiles (paper section IV and V-B).
//
// Given the snapshots of one spinning tag, the profile maps a candidate
// direction (azimuth phi, optionally polar gamma) to the relative power
// received from that direction, using circular-antenna-array SAR equations:
//
//   P(phi) = (1/n) |sum_i exp(J[theta_i      + k_i r cos(a_i - phi)])|
//   Q(phi) = (1/n) |sum_i exp(J[theta_i-th_0 + k_i r cos(a_i - phi)])|
//   R(phi) = (1/n) |sum_i w_i(phi) exp(J[theta_i-th_0 + k_i r cos(a_i-phi)])|
//
// with k_i = 4*pi/lambda_i, a_i the disk angle at snapshot i, and
// w_i(phi) the Gaussian likelihood of the *wrapped* residual between the
// measured relative phase and the steering prediction
// c_i(phi) = k r (cos(a_0-phi) - cos(a_i-phi)) under N(0, 2 sigma^2).
// In 3D every r cos(a - phi) term is multiplied by cos(gamma).
//
// Deviations from the paper's notation, documented here:
//  * Weights use exp(-x^2 / (2 sigma_pair^2)) rather than the full Gaussian
//    PDF -- same argmax, but profiles stay in [0, 1].
//  * The residual is wrapped to (-pi, pi] before weighting; |c_i| exceeds
//    2*pi whenever r > lambda/4, so the unwrapped residual of the paper's
//    formula would mis-weight perfectly consistent snapshots.
//  * With channel hopping, relative phases are only meaningful within one
//    channel (the unknown 4*pi*D/lambda term differs across channels), so
//    Q/R form one coherent sum per channel and combine the magnitudes.
//    P ignores grouping -- it is the classical method reproduced as-is.
//
// Every value comes from one batched kernel, evaluateGrid (DESIGN.md,
// "Spectrum kernel"): structure-of-arrays snapshot entries, a block of
// directions evaluated per pass over the snapshots, inline polynomial
// sin/cos/exp, and no heap allocation per call.  The kernel is compiled
// once per instruction-set level and the widest level the CPU supports
// runs; every level computes the same bits.  The same kernel body also
// runs in float (scanRect): a cheap scan of a whole rectangle of
// directions whose every value carries a proven bound on its distance
// from the double value, so a search can re-evaluate in double only the
// cells that may hold the maximum.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/snapshot.hpp"

namespace tagspin::core {

/// The instruction-set levels the spectrum kernel is compiled for
/// (DESIGN.md, "Dispatch").  The levels differ only in vector width: each
/// runs the same IEEE operations in the same order, so every level
/// computes bit-identical profile values.
enum class KernelIsa {
  kBaseline,  // the target's default ISA (SSE2 on x86-64)
  kX86_64_V3,  // AVX2
  kX86_64_V4,  // AVX-512
};

/// The level every PowerProfile value is computed at: the widest one this
/// build and CPU support, chosen once per process.
KernelIsa activeKernelIsa();

/// Whether this build and CPU can run the kernel at `isa`.  Off x86-64
/// (or off GCC) only kBaseline is built.
bool kernelIsaSupported(KernelIsa isa);

/// "baseline", "x86-64-v3" or "x86-64-v4".
const char* kernelIsaName(KernelIsa isa);

class PowerProfile {
 public:
  /// Builds the profile over the given snapshots.  Throws
  /// std::invalid_argument unless there are at least 2, each with a finite
  /// time and phase and a finite wavelength > 0, the rig radius is finite
  /// and > 0 and phaseNoiseStd is finite and > 0.
  PowerProfile(std::span<const Snapshot> snapshots,
               const RigKinematics& kinematics, const ProfileConfig& config);

  /// Profile values for every angle in `angles`, written to `out` (which
  /// must have the same size; throws std::invalid_argument otherwise).
  /// The aperture term is scale * cos(a_i - angle): scale = cos(gamma) for
  /// the horizontal 3D case, 1 in 2D.  A direction's value does not depend
  /// on the other angles of the request.  Allocation-free once the calling
  /// thread's scratch has grown to this profile's largest channel group,
  /// and safe to call concurrently on one profile.
  void evaluateGrid(std::span<const double> angles, double scale,
                    std::span<double> out) const;

  /// Profile value for azimuth phi (2D, gamma = 0).
  double evaluate(double phi) const { return evaluate(phi, 0.0); }

  /// Profile value for direction (phi, gamma) -- paper Eqn. 11/12.
  double evaluate(double phi, double gamma) const;

  /// One-direction evaluateGrid: the aperture term is
  /// scale * cos(a_i - angle), where `angle` is measured in the rig's
  /// rotation plane and `scale` is the length of the unit direction's
  /// projection onto that plane.  The horizontal 3D case is
  /// evaluateDirection(phi, cos(gamma)); a vertically spinning rig
  /// (future-work extension) uses its own plane projection.
  double evaluateDirection(double angle, double scale) const;

  /// The profile over the uniform `points`-point azimuth grid
  /// (dsp::circularGrid) -- the grid the azimuth search scans.
  std::vector<double> sampleAzimuth(size_t points, double gamma = 0.0) const;

  /// How broadly the snapshots support direction (phi, gamma) under the
  /// enhanced profile's likelihood weights.  `effectiveFraction` is the
  /// effective sample size of the weights, (sum w)^2 / (n sum w^2), as a
  /// fraction of n: ~1 when every snapshot backs the direction, ~f when
  /// only a coherent fraction f does -- the signature of a multipath ghost
  /// peak, whose lobe is built from the subset of reads that bounced off
  /// the reflector.  Non-enhanced formulas carry no weights and report
  /// {1, 1}.
  struct WeightStats {
    double meanWeight = 1.0;
    double effectiveFraction = 1.0;
  };
  WeightStats weightStats(double phi, double gamma = 0.0) const;

  /// evaluateGrid and weightStats at an explicit kernel level instead of
  /// activeKernelIsa() -- the seam the cross-level tests and benchmarks
  /// use.  Throw std::invalid_argument if !kernelIsaSupported(isa).
  void evaluateGridOn(KernelIsa isa, std::span<const double> angles,
                      double scale, std::span<double> out) const;
  WeightStats weightStatsOn(KernelIsa isa, double phi, double gamma) const;

  /// The float32 rectangle scan (DESIGN.md section 11, "Float scan"): for
  /// every aperture scale j and angle i, the profile evaluated in float
  /// arithmetic in values[j * angles.size() + i], and in bounds[...] a
  /// bound proven to hold |values - evaluateGrid's value at (angles[i],
  /// scales[j])| <= bounds.  A row whose a-priori bound is useless (a
  /// phase term beyond the float reductions' range, or at least half of
  /// the spectrum's [0, 1] range) is not scanned: its values are 0 and
  /// its bounds +infinity.  Values and bounds are the same bits at every
  /// kernel level.  Allocation-free once the calling thread's scratch has
  /// grown, and safe to call concurrently on one profile.  Throws
  /// std::invalid_argument unless values and bounds both hold
  /// angles.size() * scales.size() entries.
  void scanRect(std::span<const double> angles,
                std::span<const double> scales, std::span<double> values,
                std::span<double> bounds) const;

  /// scanRect at an explicit kernel level (the seam of the cross-level
  /// tests and benchmarks); throws std::invalid_argument if
  /// !kernelIsaSupported(isa).
  void scanRectOn(KernelIsa isa, std::span<const double> angles,
                  std::span<const double> scales, std::span<double> values,
                  std::span<double> bounds) const;

  size_t snapshotCount() const { return cosA_.size(); }
  const ProfileConfig& config() const { return config_; }

 private:
  struct WeightSums {
    double sum = 0.0;
    double sumSq = 0.0;
  };

  // The per-level entry points (power_profile.cpp).
  struct Kernel;

  /// One kernel call over the snapshot entries in value type T (the
  /// profile's own arrays for double, a float copy for the scan):
  /// `count` directions at one aperture scale.  With `sums` set
  /// (count == 1), lane 0 also accumulates its likelihood weights; with
  /// `norms` set (R only), |centroid| of group g at direction i goes to
  /// norms[g * normStride + i], for the scan's bound.
  template <class T>
  struct Call {
    const T* cosA;
    const T* sinA;
    const T* kr;
    const T* relPhase;
    const double* angles;
    size_t count;
    double scale;
    double* out;
    WeightSums* sums;
    double* norms;
    size_t normStride;
  };

  // The kernel body.  Always inlined, so each entry point compiles its own
  // copy at its own instruction-set level; the attribute sits on these
  // first declarations so every declaration GCC sees carries it.

  /// Evaluates a call's directions: blocks of the type's lane count plus
  /// a padded tail, or one lane.
  template <class T>
  [[gnu::always_inline]] inline void evaluateAll(const Call<T>& call) const;

  /// Evaluates the L directions `angles` (a block of the call's, or its
  /// padded tail) in one pass over the snapshots, into `out`; R's
  /// centroid magnitudes go to `norms` when set.
  template <class T, size_t L>
  [[gnu::always_inline]] inline void evaluateBlock(const Call<T>& call,
                                                   const double* angles,
                                                   double* out,
                                                   double* norms) const;

  /// The call evaluateGrid makes on the profile's own (double) entries.
  Call<double> doubleCall(const double* angles, size_t count, double scale,
                          double* out, WeightSums* sums) const;

  ProfileConfig config_;
  double sigmaPair_ = 0.0;

  // Snapshot entries as structure of arrays, each channel group
  // contiguous: group g owns [groupStart_[g], groupStart_[g + 1]), in the
  // snapshots' original order.  cos/sin of the disk angle a_i are
  // precomputed so the per-candidate evaluation needs no trig on the
  // geometry: cos(a - phi) = cosA*cos(phi) + sinA*sin(phi).
  std::vector<double> cosA_;
  std::vector<double> sinA_;
  std::vector<double> kr_;        // k_i * r = 4*pi*r/lambda_i
  std::vector<double> relPhase_;  // theta_i - theta_0 of its channel group
  std::vector<size_t> groupStart_;
  // cos/sin of each group's reference disk angle a_0.
  std::vector<double> refCos_;
  std::vector<double> refSin_;
};

}  // namespace tagspin::core
