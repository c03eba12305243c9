// Spin self-diagnosis: is a single rig's angle spectrum trustworthy?
//
// A spinning tag captured by a strong reflector (paper section IV's
// multipath regime) produces a spectrum whose tallest lobe points at the
// *reflection*, not the reader.  Averaging such a spin into a fix drags the
// antenna estimate arbitrarily far with no warning.  This module inspects a
// sampled azimuth spectrum and renders a typed verdict:
//
//   kAccept     -- sharp, unimodal, well-supported peak; use as-is.
//   kSuspect    -- usable but degraded (wide lobe, strong sidelobe, or a
//                  meaningful ghost score); contribute, at reduced trust.
//   kQuarantine -- the peak is ambiguous or ghost-dominated; the spin must
//                  not pick its own direction.  Downstream either drops it
//                  or feeds *all* candidate peaks to the consensus
//                  intersection (robust/consensus.hpp) and lets geometry
//                  decide.
//
// The diagnostics are computed from dense spectrum samples alone plus one
// scalar the caller supplies: the ghost score, derived from the enhanced
// profile's likelihood weights (core::PowerProfile::weightStats) -- a peak
// supported by only a small coherent subset of snapshots is a classic
// multipath ghost.  Keeping the profile type out of this header lets the
// robust library sit below core in the dependency order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tagspin::robust {

enum class SpinVerdict {
  kAccept = 0,
  kSuspect,
  kQuarantine,
};
const char* spinVerdictName(SpinVerdict verdict);

/// One plausible direction hypothesis extracted from the spectrum.
struct BearingCandidate {
  double angleRad = 0.0;  // [0, 2*pi)
  double value = 0.0;     // spectrum value at the (refined) peak
};

struct SpinDiagnostics {
  double peakValue = 0.0;
  /// Main peak / strongest sidelobe (any other local maximum).  Large is
  /// good; infinity when the spectrum has a single local maximum.
  double peakToSidelobeRatio = 0.0;
  /// Local maxima (excluding the main peak) taller than
  /// `ambiguityRatio * peakValue` -- each is a direction the spin cannot
  /// rule out on its own.
  int ambiguousPeakCount = 0;
  /// Half-power width of the main lobe, degrees.
  double lobeWidthDeg = 360.0;
  /// [0, 1]; 1 - effective-support fraction of the enhanced profile's
  /// likelihood weights at the main peak.  0 when every snapshot backs the
  /// peak, ~0.5 when only half do (the ghost signature).  Callers without
  /// weight information pass 0.
  double ghostScore = 0.0;
  SpinVerdict verdict = SpinVerdict::kAccept;
  /// Main peak first, then ambiguous secondaries, value-descending.
  std::vector<BearingCandidate> candidates;
};

struct SpinDiagnosticsConfig {
  /// Secondary peaks above this fraction of the main peak count as
  /// ambiguous and are emitted as candidates.
  double ambiguityRatio = 0.70;
  /// Verdict ladder: suspect when the peak-to-sidelobe ratio drops below
  /// `suspectSidelobeRatio`, quarantine below `quarantineSidelobeRatio`
  /// (a sidelobe within ~10% of the main peak is indistinguishable from
  /// the true direction).
  double suspectSidelobeRatio = 1.45;
  double quarantineSidelobeRatio = 1.12;
  /// Lobe-width gates, degrees (a clean enhanced profile is a few degrees
  /// wide; tens of degrees means the aperture collapsed).
  double suspectLobeWidthDeg = 60.0;
  double quarantineLobeWidthDeg = 150.0;
  /// Ghost-score gates (see SpinDiagnostics::ghostScore).
  double suspectGhostScore = 0.35;
  double quarantineGhostScore = 0.60;
  size_t maxCandidates = 4;
  /// Minimum angular separation between reported candidates, in samples
  /// of the analysed grid (mirrors core::assessSpectrumSamples' peak spacing).
  size_t minPeakSeparationDivisor = 36;
};

/// Diagnose one azimuth spectrum sampled densely on [0, 2*pi) (samples[i]
/// at angle 2*pi*i/n, circular).  `ghostScore` comes from the profile's
/// likelihood weights; pass 0 when unavailable.  Fewer than 8 samples
/// yield a quarantine verdict (no meaningful peak structure).
SpinDiagnostics diagnoseSpectrum(std::span<const double> samples,
                                 double ghostScore,
                                 const SpinDiagnosticsConfig& config = {});

}  // namespace tagspin::robust
