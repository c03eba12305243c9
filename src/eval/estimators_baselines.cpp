// Adapters wiring the baseline localizers into the experiment runner.
//
// Each adapter extracts exactly the measurements its system would have on
// real hardware: LandMarc sees per-reference RSSI, AntLoc sees max-RSSI
// bearings of a rotating antenna (beamwidth-limited), PinIt sees angular
// power fingerprints, BackPos sees averaged phases of calibrated anchors.
// None of them reads the trial's ground truth except AntLoc's bearing
// *sensor model* (truth + beamwidth noise), which simulates the antenna
// sweep we cannot run inside a recorded trace.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <random>

#include "baselines/antloc.hpp"
#include "baselines/backpos.hpp"
#include "baselines/landmarc.hpp"
#include "baselines/pinit.hpp"
#include "core/power_profile.hpp"
#include "core/preprocess.hpp"
#include "eval/estimators.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {

namespace {

/// Mean RSSI per static tag heard in the stream.
std::vector<baselines::RssiObservation> staticRssi(const TrialContext& ctx) {
  std::vector<baselines::RssiObservation> out;
  for (const sim::StaticTag& st : ctx.world.statics) {
    double acc = 0.0;
    size_t n = 0;
    for (const rfid::TagReport& r : ctx.reports) {
      if (r.epc == st.tag.epc) {
        acc += r.rssiDbm;
        ++n;
      }
    }
    if (n > 0) {
      out.push_back({st.position, acc / static_cast<double>(n)});
    }
  }
  return out;
}

uint64_t trialSeedOf(const TrialContext& ctx) {
  // Derive per-trial randomness from the truth position bits -- unique per
  // trial, stable per (trial, estimator) pair.
  const auto bits = [](double v) {
    uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  };
  return sim::splitmix64(bits(ctx.truth.x) ^ sim::splitmix64(bits(ctx.truth.y)) ^
                         bits(ctx.truth.z) ^ ctx.world.worldSeed);
}

}  // namespace

Estimator makeLandmarc(const baselines::LandmarcConfig& config) {
  return [config](const TrialContext& ctx) {
    const auto observations = staticRssi(ctx);
    return baselines::landmarcLocate(observations, config);
  };
}

Estimator makeAntLoc(const baselines::AntLocConfig& config) {
  return [config](const TrialContext& ctx) {
    // The rotating antenna only resolves references with solid SNR; use the
    // four strongest, like the original system's handful of tags.
    auto observations = staticRssi(ctx);
    std::sort(observations.begin(), observations.end(),
              [](const baselines::RssiObservation& a,
                 const baselines::RssiObservation& b) {
                return a.rssiDbm > b.rssiDbm;
              });
    observations.resize(std::min<size_t>(observations.size(), 4));

    std::mt19937_64 rng(sim::deriveSeed(trialSeedOf(ctx), 0xA7710CULL));
    std::normal_distribution<double> noise(0.0, config.bearingNoiseStd);
    std::vector<baselines::BearingObservation> bearings;
    bearings.reserve(observations.size());
    for (const baselines::RssiObservation& o : observations) {
      const double trueBearing = geom::azimuthOf(ctx.truth, o.position);
      bearings.push_back({o.position,
                          geom::wrapTwoPi(trueBearing + noise(rng))});
    }
    return baselines::antlocLocate(bearings);
  };
}

namespace {

/// PinIt's survey phase: angular power fingerprints from a grid of probe
/// reader positions, measured with the same spinning-tag aperture the
/// online phase uses.  Built once per world and shared across trials.
class PinItSurvey {
 public:
  static std::shared_ptr<const std::vector<baselines::Fingerprint>> get(
      const sim::World& world, double spacingM) {
    static std::mutex mu;
    static std::map<std::pair<uint64_t, long>,
                    std::shared_ptr<const std::vector<baselines::Fingerprint>>>
        cache;
    const std::pair<uint64_t, long> key{world.worldSeed,
                                        std::lround(spacingM * 1000.0)};
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    auto db = std::make_shared<std::vector<baselines::Fingerprint>>(
        build(world, spacingM));
    cache[key] = db;
    return db;
  }

  static std::vector<std::vector<double>> measureProfile(
      const sim::World& world, const rfid::ReportStream& reports) {
    // One angular power profile per horizontal rig aperture.
    std::vector<std::vector<double>> profiles;
    for (const sim::RigTag& rt : world.rigs) {
      if (rt.rig.plane != sim::SpinningRig::Plane::kHorizontal) continue;
      std::vector<core::Snapshot> snaps;
      try {
        snaps = core::extractSnapshots(reports, rt.tag.epc);
      } catch (const std::invalid_argument&) {
        continue;
      }
      if (snaps.size() < 8) continue;
      core::ProfileConfig pc;
      pc.formula = core::ProfileFormula::kEnhancedR;
      const core::PowerProfile profile(snaps, rigSpecOf(rt).kinematics, pc);
      std::vector<double> p = profile.sampleAzimuth(90);
      // PinIt fingerprints on the *dominant* arrival directions; soft-
      // threshold the noise floor so the DTW distance is driven by the
      // peaks, not by floor ripple integrated over all bins.  The profile
      // is a *power* profile: restore the absolute receive level (our SAR
      // profiles normalise it away) so the fingerprint resolves range as
      // well as direction.
      const double peak = *std::max_element(p.begin(), p.end());
      double meanRssi = 0.0;
      for (const core::Snapshot& s : snaps) meanRssi += s.rssiDbm;
      meanRssi /= static_cast<double>(snaps.size());
      const double amplitude = std::pow(10.0, (meanRssi + 50.0) / 40.0);
      for (double& v : p) v = std::max(0.0, v - 0.5 * peak) * amplitude;
      profiles.push_back(std::move(p));
    }
    if (profiles.empty()) {
      throw std::runtime_error("PinIt: no usable aperture in the stream");
    }
    return profiles;
  }

 private:
  static std::vector<baselines::Fingerprint> build(const sim::World& world,
                                                   double spacingM) {
    std::vector<baselines::Fingerprint> db;
    const sim::Region region{};
    for (double x = -region.halfWidthX; x <= region.halfWidthX + 1e-9;
         x += spacingM) {
      for (double y = region.yMin; y <= region.yMax + 1e-9; y += spacingM) {
        sim::World probe = world;
        const double z =
            probe.rigs.empty() ? 0.0 : probe.rigs[0].rig.center.z;
        sim::placeReaderAntenna(probe, 0, {x, y, z});
        sim::InterrogateConfig ic;
        ic.durationS = 25.0;
        ic.streamId = 0x5A17EULL + static_cast<uint64_t>(db.size());
        const rfid::ReportStream reports = sim::interrogate(probe, ic);
        try {
          db.push_back({{x, y, z}, measureProfile(probe, reports)});
        } catch (const std::exception&) {
          // unreadable grid point (out of range); skip
        }
      }
    }
    return db;
  }
};

}  // namespace

Estimator makePinIt(const baselines::PinItConfig& config) {
  return [config](const TrialContext& ctx) {
    const auto db = PinItSurvey::get(ctx.world, 0.4);
    const std::vector<std::vector<double>> measured =
        PinItSurvey::measureProfile(ctx.world, ctx.reports);
    return baselines::pinitLocate(*db, measured, config);
  };
}

Estimator makeBackPos(const baselines::BackPosConfig& config) {
  return [config](const TrialContext& ctx) {
    // Phase-calibrated anchors: theta_div is surveyed offline; a residual
    // calibration error remains.
    std::mt19937_64 rng(sim::deriveSeed(trialSeedOf(ctx), 0xBAC0ULL));
    std::normal_distribution<double> calErr(0.0, config.anchorCalibrationStd);
    const double antennaPhase =
        ctx.world.reader.antenna(ctx.antennaPort).cableAndPortPhase;

    // Use each anchor's most-read channel so all pair differences compare
    // phases of a common wavelength per anchor.
    struct Acc {
      std::map<int, std::vector<double>> phasesByChannel;
      std::map<int, double> lambdaByChannel;
      double bestRssi = -1e9;
    };
    std::map<rfid::Epc, Acc> accs;
    for (const rfid::TagReport& r : ctx.reports) {
      Acc& a = accs[r.epc];
      a.phasesByChannel[r.channelIndex].push_back(r.phaseRad);
      a.lambdaByChannel[r.channelIndex] = r.wavelengthM();
      a.bestRssi = std::max(a.bestRssi, r.rssiDbm);
    }

    std::vector<std::pair<double, baselines::AnchorPhase>> candidates;
    for (const sim::StaticTag& st : ctx.world.statics) {
      const auto it = accs.find(st.tag.epc);
      if (it == accs.end()) continue;
      // Pick the channel with the most reads.
      const auto best = std::max_element(
          it->second.phasesByChannel.begin(),
          it->second.phasesByChannel.end(),
          [](const auto& a, const auto& b) {
            return a.second.size() < b.second.size();
          });
      if (best->second.size() < 3) continue;
      baselines::AnchorPhase anchor;
      anchor.position = st.position;
      anchor.lambdaM = it->second.lambdaByChannel.at(best->first);
      const double thetaDiv = st.tag.hardwarePhase + antennaPhase;
      anchor.phase = geom::wrapTwoPi(geom::circularMean(best->second) -
                                     thetaDiv + calErr(rng));
      candidates.push_back({it->second.bestRssi, anchor});
    }
    // The original BackPos had four antennas forming one compact array and
    // located targets relative to it; the faithful dual is a *cluster* of
    // anchors (the strongest-heard anchor plus its nearest neighbours), not
    // anchors spread across the whole room -- a spread constellation would
    // hand the adaptation far better hyperbola geometry than the published
    // system ever had.
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<baselines::AnchorPhase> anchors;
    const size_t wantAnchors =
        static_cast<size_t>(std::max(config.anchorCount, 3));
    if (!candidates.empty()) {
      const geom::Vec3 arrayCenter = candidates[0].second.position;
      std::sort(candidates.begin(), candidates.end(),
                [&](const auto& a, const auto& b) {
                  return geom::distance(a.second.position, arrayCenter) <
                         geom::distance(b.second.position, arrayCenter);
                });
      // Within the array aperture, prefer the outermost anchors (largest
      // baseline first keeps the hyperbolae well conditioned).
      std::vector<const baselines::AnchorPhase*> inAperture;
      for (const auto& c : candidates) {
        if (geom::distance(c.second.position, arrayCenter) <=
            config.arrayApertureM) {
          inAperture.push_back(&c.second);
        }
      }
      std::sort(inAperture.begin(), inAperture.end(),
                [&](const baselines::AnchorPhase* a,
                    const baselines::AnchorPhase* b) {
                  return geom::distance(a->position, arrayCenter) >
                         geom::distance(b->position, arrayCenter);
                });
      anchors.push_back(candidates[0].second);
      for (const baselines::AnchorPhase* a : inAperture) {
        if (anchors.size() >= wantAnchors) break;
        if (geom::distance(a->position, arrayCenter) < 1e-9) continue;
        anchors.push_back(*a);
      }
    }

    const sim::Region region{};
    const baselines::SearchBounds bounds{-region.halfWidthX,
                                         region.halfWidthX, region.yMin,
                                         region.yMax};
    const geom::Vec2 fix = baselines::backposLocate(anchors, bounds, config);
    const double z = ctx.world.rigs.empty()
                         ? (ctx.world.statics.empty()
                                ? 0.0
                                : ctx.world.statics[0].position.z)
                         : ctx.world.rigs[0].rig.center.z;
    return geom::Vec3{fix.x, fix.y, z};
  };
}

}  // namespace tagspin::eval
