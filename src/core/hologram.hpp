// Direct holographic localization -- the SAR alternative the paper's
// related-work section discusses (Miesen et al., "Holographic localization
// of passive UHF RFID transponders"; Tagoram's differential hologram).
//
// Instead of reducing each rig to a *direction* and intersecting rays,
// the hologram scores every candidate reader position directly: for a
// candidate p, each snapshot predicts a relative phase from the exact
// tag-edge-to-p distance, and the coherent sum over snapshots (per channel,
// per rig) measures how well p explains the data.  Because exact distances
// are used, the hologram exploits wavefront curvature: it can range a
// reader with a single rig at close distances where the far-field
// angle-only model cannot.
//
// Tagspin's angle-spectrum method remains the paper's contribution; the
// hologram is provided as the natural upper-baseline for the ablation in
// bench/fig_ablation2 and as a practical option for close-range use.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/locator.hpp"
#include "core/snapshot.hpp"
#include "geom/vec.hpp"

namespace tagspin::core {

struct HologramConfig {
  /// Candidate grid bounds (metres); locate() scans them at 5 cm and then
  /// refines 8 rounds.
  double xMin = -2.0;
  double xMax = 2.0;
  double yMin = 0.3;
  double yMax = 3.5;
  /// Combine per-rig holograms multiplicatively (geometric mean) rather
  /// than additively; multiplicative fusion suppresses positions that any
  /// single rig contradicts.
  bool multiplicative = true;
};

class Hologram {
 public:
  /// Builds the hologram over the given rig observations (>= 1 rig; exact
  /// tag positions are derived from each rig's kinematics).  Throws
  /// std::invalid_argument when no usable observation is provided.
  Hologram(std::span<const RigObservation> observations,
           HologramConfig config = {});

  /// Hologram intensity at a candidate point (z = rig plane), in [0, 1].
  double intensity(const geom::Vec2& candidate) const;

  /// Argmax over the configured grid with local refinement.
  Fix2D locate() const;

  /// Dense sampling for visualisation: row-major [ny][nx] intensities.
  std::vector<std::vector<double>> sample(size_t nx, size_t ny) const;

  const HologramConfig& config() const { return config_; }

 private:
  struct Entry {
    geom::Vec3 tagPos;   // exact tag position at the snapshot time
    double k = 0.0;      // 4*pi/lambda
    double relPhase = 0.0;
    double refK = 0.0;
    geom::Vec3 refTagPos;
    int group = 0;       // (rig, channel) coherence group
  };

  HologramConfig config_;
  int groupCount_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace tagspin::core
