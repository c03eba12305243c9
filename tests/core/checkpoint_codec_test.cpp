// The checkpoint and deployment text codec against the iostream codec it
// replaced (reference_checkpoint.hpp).  The writer must print the same
// bytes.  The reader must read the same values, with two exceptions:
// it rejects, with a line-numbered std::invalid_argument, the hostile
// numbers the old reader let through (integer keys that are not plain
// decimal integers of their type, an `order` beyond the lines left, a
// malformed coefficient key, junk after a number list), and it reads back
// a subnormal scalar that the old reader refused.  Of the writer's own
// output it refuses only a spectrum holding a non-finite value, which the
// old reader cut short there.  The writer's bytes are also held at ingest
// scale, on a supervised checkpoint of ~39k snapshots whose every
// non-zero field takes the exact %.17g path (number_writer_test.cpp tests
// that path value class by value class).  Also here: the slice-by-8
// CRC-32 against the bytewise one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/decimal17.hpp"
#include "core/serialization.hpp"
#include "ingest_stream.hpp"
#include "reference_checkpoint.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/supervisor.hpp"

namespace tagspin::core {
namespace {

namespace ref = testing::reference;
using Rng = std::mt19937_64;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

// ---------------------------------------------------------------------------
// Seeded generators

/// Any double: special values, raw bit patterns (NaN payloads included),
/// subnormals, integers above 2^53 and ordinary magnitudes.
double anyDouble(Rng& rng) {
  static const double kSpecial[] = {
      0.0,     -0.0,     kNaN,    -kNaN,    kInf,       -kInf,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, kDenormMin, -kDenormMin,
      9007199254740994.0, 1e21, 1e-5, 0.1, 2.0 / 3.0, 123456789012345678.0};
  switch (rng() % 5) {
    case 0:
      return kSpecial[rng() % std::size(kSpecial)];
    case 1:
      return std::bit_cast<double>(rng());
    case 2:  // exponent field zero: a subnormal (or ±0)
      return std::bit_cast<double>(rng() & 0x800FFFFFFFFFFFFFull);
    case 3:
      return static_cast<double>(static_cast<int64_t>(rng()) >>
                                 (rng() % 64));
    default:
      return std::uniform_real_distribution<double>(-100.0, 100.0)(rng) *
             std::pow(10.0, static_cast<int>(rng() % 21) - 10);
  }
}

/// Mostly a plausible value; with probability 1/`hostileOneIn` any double.
double value(Rng& rng, int hostileOneIn) {
  if (hostileOneIn > 0 && rng() % static_cast<uint64_t>(hostileOneIn) == 0) {
    return anyDouble(rng);
  }
  return std::uniform_real_distribution<double>(-10.0, 10.0)(rng);
}

uint64_t anyCount(Rng& rng) {
  switch (rng() % 3) {
    case 0: return rng() % 100;
    case 1: return (uint64_t{1} << 53) + rng() % 1000;  // beyond a double
    default: return rng() >> 1;
  }
}

OrientationModel anyModel(Rng& rng, int hostileOneIn) {
  dsp::FourierSeries s;
  s.a0 = value(rng, hostileOneIn);
  const size_t order = rng() % 5;
  for (size_t k = 0; k < order; ++k) {
    s.a.push_back(value(rng, hostileOneIn));
    s.b.push_back(value(rng, hostileOneIn));
  }
  return OrientationModel::fromSeries(std::move(s), value(rng, hostileOneIn));
}

/// A checkpoint exercising every section, every [last_fix] variant (by
/// seed) and, one value in `hostileOneIn`, non-finite, signed-zero,
/// subnormal and extreme numbers.
CalibrationCheckpoint anyCheckpoint(uint64_t seed, int hostileOneIn) {
  Rng rng(seed);
  CalibrationCheckpoint c;
  c.sequence = anyCount(rng);
  c.wallTimeS = value(rng, hostileOneIn);
  c.lastReportTimestampS = value(rng, hostileOneIn);
  const uint64_t variant = seed % 9;  // 8 [last_fix] shapes + none
  if (variant < 8) {
    FixRecord& f = c.lastFix;
    f.valid = true;
    f.x = value(rng, hostileOneIn);
    f.y = value(rng, hostileOneIn);
    f.confidence = value(rng, hostileOneIn);
    f.inlierFraction = value(rng, hostileOneIn);
    f.quarantinedSpins = anyCount(rng);
    f.hasEllipse = (variant & 1) != 0;
    f.ellipseSemiMajorM = value(rng, hostileOneIn);
    f.ellipseSemiMinorM = value(rng, hostileOneIn);
    f.ellipseOrientationRad = value(rng, hostileOneIn);
    f.ellipseConfidence = value(rng, hostileOneIn);
    f.hasVelocity = (variant & 2) != 0;
    f.velocityX = value(rng, hostileOneIn);
    f.velocityY = value(rng, hostileOneIn);
    f.hasTrack = (variant & 4) != 0;
    f.trackTimeS = value(rng, hostileOneIn);
    f.trackState = static_cast<uint32_t>(rng());
    f.trackModel = static_cast<uint32_t>(rng() % 3);
  }
  const size_t tags = rng() % 4;
  for (size_t t = 0; t < tags; ++t) {
    TagCalibrationProgress& tag =
        c.tags[rfid::Epc::forSimulatedTag(static_cast<uint32_t>(rng() % 64))];
    const size_t snapshots = rng() % 24;
    for (size_t i = 0; i < snapshots; ++i) {
      Snapshot s;
      s.timeS = value(rng, hostileOneIn);
      s.phaseRad = value(rng, hostileOneIn);
      s.lambdaM = value(rng, hostileOneIn);
      s.channel = static_cast<int>(
          rng() % 8 == 0 ? static_cast<uint32_t>(rng()) : rng() % 50);
      s.rssiDbm = value(rng, hostileOneIn);
      tag.snapshots.push_back(s);
    }
    if (rng() % 2 == 0) {
      const size_t points = 1 + rng() % 12;
      for (size_t i = 0; i < points; ++i) {
        tag.angleSpectrum.push_back(value(rng, hostileOneIn));
      }
    }
    if (rng() % 2 == 0) {
      tag.hasOrientationModel = true;
      tag.orientationModel = anyModel(rng, hostileOneIn);
    }
  }
  return c;
}

DeploymentFile anyDeployment(uint64_t seed, int hostileOneIn) {
  Rng rng(seed);
  DeploymentFile d;
  const auto rig = [&] {
    RigSpec r;
    r.center = {value(rng, hostileOneIn), value(rng, hostileOneIn),
                value(rng, hostileOneIn)};
    // Usually a readable radius (> 0); the hostile draw tests rejection.
    r.kinematics.radiusM = std::abs(value(rng, 0)) + 0.01;
    if (hostileOneIn > 0 && rng() % 8 == 0) {
      r.kinematics.radiusM = anyDouble(rng);
    }
    r.kinematics.omegaRadPerS = value(rng, hostileOneIn);
    r.kinematics.initialAngle = value(rng, hostileOneIn);
    r.kinematics.tagPlaneOffset = value(rng, hostileOneIn);
    return r;
  };
  for (size_t i = rng() % 4; i > 0; --i) {
    d.rigs[rfid::Epc::forSimulatedTag(static_cast<uint32_t>(rng() % 64))] =
        rig();
  }
  for (size_t i = rng() % 3; i > 0; --i) {
    d.verticalRigs[rfid::Epc::forSimulatedTag(
        static_cast<uint32_t>(rng() % 64))] = rig();
  }
  for (size_t i = rng() % 3; i > 0; --i) {
    d.orientationModels[rfid::Epc::forSimulatedTag(
        static_cast<uint32_t>(rng() % 64))] = anyModel(rng, hostileOneIn);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Bitwise comparison

bool same(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

bool same(const OrientationModel& a, const OrientationModel& b) {
  return same(a.series().a0, b.series().a0) &&
         same(a.series().a, b.series().a) && same(a.series().b, b.series().b) &&
         same(a.fitResidual(), b.fitResidual());
}

bool same(const FixRecord& a, const FixRecord& b) {
  return a.valid == b.valid && same(a.x, b.x) && same(a.y, b.y) &&
         same(a.confidence, b.confidence) &&
         same(a.inlierFraction, b.inlierFraction) &&
         a.quarantinedSpins == b.quarantinedSpins &&
         a.hasEllipse == b.hasEllipse &&
         same(a.ellipseSemiMajorM, b.ellipseSemiMajorM) &&
         same(a.ellipseSemiMinorM, b.ellipseSemiMinorM) &&
         same(a.ellipseOrientationRad, b.ellipseOrientationRad) &&
         same(a.ellipseConfidence, b.ellipseConfidence) &&
         a.hasVelocity == b.hasVelocity && same(a.velocityX, b.velocityX) &&
         same(a.velocityY, b.velocityY) && a.hasTrack == b.hasTrack &&
         same(a.trackTimeS, b.trackTimeS) && a.trackState == b.trackState &&
         a.trackModel == b.trackModel;
}

bool same(const CalibrationCheckpoint& a, const CalibrationCheckpoint& b) {
  if (a.sequence != b.sequence || !same(a.wallTimeS, b.wallTimeS) ||
      !same(a.lastReportTimestampS, b.lastReportTimestampS) ||
      !same(a.lastFix, b.lastFix) || a.tags.size() != b.tags.size()) {
    return false;
  }
  for (auto ia = a.tags.begin(), ib = b.tags.begin(); ia != a.tags.end();
       ++ia, ++ib) {
    const TagCalibrationProgress& x = ia->second;
    const TagCalibrationProgress& y = ib->second;
    if (ia->first != ib->first || x.snapshots.size() != y.snapshots.size() ||
        !same(x.angleSpectrum, y.angleSpectrum) ||
        x.hasOrientationModel != y.hasOrientationModel ||
        !same(x.orientationModel, y.orientationModel)) {
      return false;
    }
    for (size_t i = 0; i < x.snapshots.size(); ++i) {
      const Snapshot& s = x.snapshots[i];
      const Snapshot& t = y.snapshots[i];
      if (!same(s.timeS, t.timeS) || !same(s.phaseRad, t.phaseRad) ||
          !same(s.lambdaM, t.lambdaM) || s.channel != t.channel ||
          !same(s.rssiDbm, t.rssiDbm)) {
        return false;
      }
    }
  }
  return true;
}

bool same(const std::map<rfid::Epc, RigSpec>& a,
          const std::map<rfid::Epc, RigSpec>& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    const RigSpec& x = ia->second;
    const RigSpec& y = ib->second;
    if (ia->first != ib->first || !same(x.center.x, y.center.x) ||
        !same(x.center.y, y.center.y) || !same(x.center.z, y.center.z) ||
        !same(x.kinematics.radiusM, y.kinematics.radiusM) ||
        !same(x.kinematics.omegaRadPerS, y.kinematics.omegaRadPerS) ||
        !same(x.kinematics.initialAngle, y.kinematics.initialAngle) ||
        !same(x.kinematics.tagPlaneOffset, y.kinematics.tagPlaneOffset)) {
      return false;
    }
  }
  return true;
}

bool same(const DeploymentFile& a, const DeploymentFile& b) {
  if (!same(a.rigs, b.rigs) || !same(a.verticalRigs, b.verticalRigs) ||
      a.orientationModels.size() != b.orientationModels.size()) {
    return false;
  }
  for (auto ia = a.orientationModels.begin(), ib = b.orientationModels.begin();
       ia != a.orientationModels.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same(ia->second, ib->second)) return false;
  }
  return true;
}

/// `now` equals `old` once each 64-bit integer key above 2^53 takes the
/// value the old reader gave it: the text rounded through a double, and
/// undefined where that double is 2^64.
bool sameUpToRoundedIntegers(CalibrationCheckpoint now,
                             const CalibrationCheckpoint& old) {
  const auto rounded = [](uint64_t exact, uint64_t read) {
    const double d = static_cast<double>(exact);
    if (exact <= (uint64_t{1} << 53)) return exact;
    if (d >= 18446744073709551616.0) return read;
    return static_cast<uint64_t>(d) == read ? read : exact;
  };
  now.sequence = rounded(now.sequence, old.sequence);
  now.lastFix.quarantinedSpins =
      rounded(now.lastFix.quarantinedSpins, old.lastFix.quarantinedSpins);
  return same(now, old);
}

// ---------------------------------------------------------------------------
// The differential verdict

enum class Verdict {
  kSame,             // both read bit-identical values
  kBothThrow,        // both refuse the text
  kRejected,         // a hostile number the old reader let through
  kSubnormalScalar,  // a subnormal scalar the old reader refused
  kExactInteger,     // an integer key the old reader rounded
};

bool lineNumbered(const std::string& what) {
  return what.rfind("deployment file line ", 0) == 0;
}

/// Messages of the classes the new reader rejects and the old one read.
bool rejectedClass(const std::string& what) {
  for (const char* marker :
       {" must be a decimal integer in range: ", " lines left",
        "coefficient index out of range: ", "junk after the numbers: "}) {
    if (what.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// The old reader's "number out of range: <v>" names a subnormal.
bool refusedSubnormal(const std::string& what) {
  const std::string marker = "number out of range: ";
  const size_t at = what.find(marker);
  if (at == std::string::npos) return false;
  const double v = std::strtod(what.c_str() + at + marker.size(), nullptr);
  return std::fpclassify(v) == FP_SUBNORMAL;
}

template <class T>
struct Reading {
  std::optional<T> value;
  std::string error;
};

template <class T>
Reading<T> attempt(const std::function<T()>& read) {
  Reading<T> r;
  try {
    r.value = read();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// An `order` line the old reader would turn into a vector of that many
/// doubles (or an undefined cast): far more than a file of this size can
/// describe.  The old reader is not run on such text -- a 2^31 order asks
/// for 16 GB, which a sanitizer build aborts on and a plain one may grant.
bool oldReaderWouldAllocate(const std::string& text) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos || line.compare(b, 5, "order") != 0) continue;
    const size_t eq = line.find('=', b);
    if (eq == std::string::npos ||
        line.find_first_not_of(" \t", b + 5) != eq) {
      continue;
    }
    const double order = std::strtod(line.c_str() + eq + 1, nullptr);
    if (!(order >= 0.0 && order <= static_cast<double>(text.size()))) {
      return true;
    }
  }
  return false;
}

/// Reads `text` with both readers and says how they relate, or fails.
/// `why` is set to the reason of a failure, or to the new reader's error
/// on a kRejected verdict.
template <class T>
std::optional<Verdict> compare(
    const std::string& text, const std::function<T(const std::string&)>& old,
    const std::function<T(const std::string&)>& now, std::string& why) {
  if (oldReaderWouldAllocate(text)) {
    // Only the new reader runs; it must refuse the order.
    try {
      now(text);
    } catch (const std::invalid_argument& e) {
      why = e.what();
      if (lineNumbered(why) && rejectedClass(why)) return Verdict::kRejected;
      why = std::string("a huge order refused for another reason: ") +
            e.what();
      return std::nullopt;
    }
    why = "a huge order read";
    return std::nullopt;
  }
  const Reading<T> o = attempt<T>([&] { return old(text); });
  Reading<T> n;
  try {
    n.value = now(text);
  } catch (const std::invalid_argument& e) {
    n.error = e.what();
  } catch (const std::exception& e) {
    why = std::string("new reader threw a non-invalid_argument: ") + e.what();
    return std::nullopt;
  }
  if (o.value && n.value) {
    if (same(*n.value, *o.value)) return Verdict::kSame;
    if constexpr (std::is_same_v<T, CalibrationCheckpoint>) {
      if (sameUpToRoundedIntegers(*n.value, *o.value)) {
        return Verdict::kExactInteger;
      }
    }
    why = "both read the text, with different values";
    return std::nullopt;
  }
  if (!o.value && !n.value) return Verdict::kBothThrow;
  if (o.value) {
    if (lineNumbered(n.error) && rejectedClass(n.error)) {
      why = n.error;
      return Verdict::kRejected;
    }
    why = "only the new reader refused it: " + n.error;
    return std::nullopt;
  }
  if (refusedSubnormal(o.error)) return Verdict::kSubnormalScalar;
  why = "only the old reader refused it: " + o.error;
  return std::nullopt;
}

const std::function<CalibrationCheckpoint(const std::string&)> kOldCheckpoint =
    [](const std::string& t) { return ref::checkpointFromString(t); };
const std::function<CalibrationCheckpoint(const std::string&)> kNewCheckpoint =
    [](const std::string& t) { return checkpointFromString(t); };
const std::function<DeploymentFile(const std::string&)> kOldDeployment =
    [](const std::string& t) { return ref::deploymentFromString(t); };
const std::function<DeploymentFile(const std::string&)> kNewDeployment =
    [](const std::string& t) { return deploymentFromString(t); };

/// Which kRejected verdicts a corpus allows: given the text and the new
/// reader's error.
using RefusalFilter =
    std::function<bool(const std::string& text, const std::string& error)>;

/// Tally of verdicts over a corpus; fails the test on any other outcome
/// and on a refusal that `mayRefuse` does not allow.
struct Tally {
  RefusalFilter mayRefuse = [](const std::string&, const std::string&) {
    return true;
  };
  std::array<size_t, 5> counts{};
  size_t failures = 0;

  void add(const std::string& text, bool checkpoint) {
    std::string why;
    std::optional<Verdict> v =
        checkpoint ? compare(text, kOldCheckpoint, kNewCheckpoint, why)
                   : compare(text, kOldDeployment, kNewDeployment, why);
    if (v == Verdict::kRejected && !mayRefuse(text, why)) {
      why = "the new reader refused what this corpus may not refuse: " + why;
      v.reset();
    }
    if (!v) {
      if (++failures <= 10) {
        ADD_FAILURE() << why << "\n--- input ---\n" << text << "--- end ---";
      }
      return;
    }
    ++counts[static_cast<size_t>(*v)];
  }
  size_t operator[](Verdict v) const { return counts[static_cast<size_t>(v)]; }
};

/// The reader's error for `text`, or "" when it reads.
std::string readError(const std::string& text) {
  try {
    checkpointFromString(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// A hand-written checkpoint whose keys each sit on a known line.
const std::string kBase =
    "[checkpoint]\n"                           // 1
    "sequence = 5\n"                           // 2
    "wall_time_s = 1.5\n"                      // 3
    "[last_fix]\n"                             // 4
    "position = 0.5 0.25\n"                    // 5
    "quarantined_spins = 2\n"                  // 6
    "track = 4.5 2 1\n"                        // 7
    "[tag_progress 35A600320000000351570003]\n"  // 8
    "snapshot_count = 1\n"                     // 9
    "snapshot = 1 2 0.3 4 5\n"                 // 10
    "spectrum = 0.5 0.25\n"                    // 11
    "[tag_model 35A600320000000351570003]\n"     // 12
    "order = 1\n"                              // 13
    "a0 = 0.1\n"                               // 14
    "a1 = 0.2\n"                               // 15
    "b1 = 0.3\n"                               // 16
    "fit_residual = 0.01\n";                   // 17

/// kBase with the line starting `key =` replaced by `line`.
std::string withLine(const std::string& key, const std::string& line) {
  std::string text = kBase;
  const size_t at = text.find("\n" + key + " =") + 1;
  text.replace(at, text.find('\n', at) - at, line);
  return text;
}

/// The error is the new reader's line-numbered refusal at `line`.
void expectRefusedAt(const std::string& text, int line,
                     const std::string& what) {
  const std::string err = readError(text);
  EXPECT_EQ(err.rfind("deployment file line " + std::to_string(line) + ": ",
                      0),
            0u)
      << "error: '" << err << "'\n" << text;
  EXPECT_NE(err.find(what), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Same bytes out

TEST(CheckpointCodec, WriterMatchesReferenceBytes) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const CalibrationCheckpoint c = anyCheckpoint(seed, seed % 2 ? 4 : 0);
    const std::string text = checkpointToString(c);
    ASSERT_EQ(text, ref::checkpointToString(c)) << "seed " << seed;

    const DeploymentFile d = anyDeployment(seed, seed % 2 ? 4 : 0);
    ASSERT_EQ(deploymentToString(d), ref::deploymentToString(d))
        << "seed " << seed;
    std::ostringstream a, b;
    writeDeployment(a, d);
    ref::writeDeployment(b, d);
    ASSERT_EQ(a.str(), b.str()) << "seed " << seed;

    Rng rng(seed);
    const OrientationModel m = anyModel(rng, 2);
    std::ostringstream ma, mb;
    writeOrientationModel(ma, m);
    ref::writeOrientationModel(mb, m);
    ASSERT_EQ(ma.str(), mb.str()) << "seed " << seed;
  }
}

TEST(CheckpointCodec, WriterPrintsSpecialValuesAsBefore) {
  // The values whose text iostreams and to_chars could disagree on.
  CalibrationCheckpoint c;
  c.sequence = std::numeric_limits<uint64_t>::max();
  Snapshot s;
  s.channel = INT_MIN;
  for (const double v : {kNaN, -kNaN, kInf, -kInf, -0.0, kDenormMin,
                         -kDenormMin, DBL_MAX, DBL_MIN, 9007199254740993.0,
                         1e16, 1e17, 1e-5, 1e-4}) {
    s.timeS = v;
    s.rssiDbm = -v;
    c.tags[rfid::Epc::forSimulatedTag(1)].snapshots.push_back(s);
    c.tags[rfid::Epc::forSimulatedTag(1)].angleSpectrum.push_back(v);
  }
  const std::string text = checkpointToString(c);
  EXPECT_EQ(text, ref::checkpointToString(c));
  EXPECT_NE(text.find("snapshot = -nan 0 0 -2147483648 nan\n"),
            std::string::npos);
  EXPECT_NE(text.find("snapshot = 4.9406564584124654e-324 0 0 "),
            std::string::npos);
  EXPECT_NE(text.find("sequence = 18446744073709551615\n"), std::string::npos);
}

TEST(CheckpointCodec, IngestScaleCheckpointKeepsItsBytes) {
  // perfbench ingest's checkpoint: a faulted 3-rig stream of ~40k reports
  // through a Supervisor, every ingested snapshot kept.
  const testing::IngestStream stream = testing::makeIngestStream(5);
  DeploymentFile deployment;
  for (const rfid::Epc& epc : stream.rigEpcs) deployment.rigs[epc] = RigSpec{};
  runtime::SupervisorConfig config;
  config.checkpointIntervalS = 0.0;
  config.checkpointSpectrumPoints = 0;
  runtime::Supervisor supervisor(config, deployment);
  for (const rfid::TagReport& r : stream.reports) supervisor.ingest(r);
  const CalibrationCheckpoint ckpt = supervisor.makeCheckpoint(0.0);

  size_t snapshots = 0;
  size_t zeros = 0;
  size_t fallbacks = 0;  // non-zero fields the exact path does not take
  for (const auto& [epc, tag] : ckpt.tags) {
    for (const Snapshot& s : tag.snapshots) {
      ++snapshots;
      for (const double v : {s.timeS, s.phaseRad, s.lambdaM, s.rssiDbm}) {
        char buf[decimal17::kMaxExactChars];
        if (v == 0.0) {
          ++zeros;
        } else if (decimal17::writeExact(buf, v) == nullptr) {
          ++fallbacks;
        }
      }
    }
  }
  ASSERT_EQ(ckpt.tags.size(), 3u);
  EXPECT_GT(snapshots, 36'000u);
  EXPECT_EQ(fallbacks, 0u) << "of " << 4 * snapshots << " snapshot fields ("
                           << zeros << " exact zeros)";

  const std::string text = checkpointToString(ckpt);
  ASSERT_EQ(text, ref::checkpointToString(ckpt));
  EXPECT_TRUE(same(checkpointFromString(text), ckpt));
}

// ---------------------------------------------------------------------------
// Same values in

/// The refusal is "junk after the numbers" on a spectrum line holding a
/// non-finite value: the old reader kept such a spectrum, cut short where
/// the value stood.
bool refusedNonFiniteSpectrum(const std::string& text,
                              const std::string& error) {
  const std::string prefix = "deployment file line ";
  if (error.rfind(prefix, 0) != 0 ||
      error.find(": junk after the numbers: ") == std::string::npos) {
    return false;
  }
  const long lineNo = std::strtol(error.c_str() + prefix.size(), nullptr, 10);
  std::istringstream in(text);
  std::string line;
  for (long i = 0; i < lineNo; ++i) std::getline(in, line);
  return line.rfind("spectrum = ", 0) == 0 &&
         (line.find("nan") != std::string::npos ||
          line.find("inf") != std::string::npos);
}

TEST(CheckpointCodec, ReaderMatchesReferenceOnWriterOutput) {
  // Finite writer output reads back the old reader's values, except the
  // integer keys above 2^53 that it rounded: nothing is refused.
  Tally finite;
  finite.mayRefuse = [](const std::string&, const std::string&) {
    return false;
  };
  // The hostile half adds non-finite list values and subnormal scalars.
  // Both readers refuse a non-finite snapshot or fixed-length list, and
  // only the old one refuses a subnormal scalar.  The one writer output
  // the new reader refuses is a spectrum holding a non-finite value:
  // "junk after the numbers", where the old reader cut the spectrum short
  // (DESIGN.md §9).
  Tally hostile;
  hostile.mayRefuse = refusedNonFiniteSpectrum;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const int hostileOneIn = seed % 2 ? 4 : 0;
    Tally& tally = hostileOneIn > 0 ? hostile : finite;
    tally.add(ref::checkpointToString(anyCheckpoint(seed, hostileOneIn)),
              true);
    tally.add(ref::deploymentToString(anyDeployment(seed, hostileOneIn)),
              false);
  }
  EXPECT_EQ(finite[Verdict::kSame] + finite[Verdict::kExactInteger], 400u);
  EXPECT_GT(finite[Verdict::kSame], 100u);
  EXPECT_GT(finite[Verdict::kExactInteger], 0u);
  EXPECT_GT(hostile[Verdict::kBothThrow], 0u);
  EXPECT_GT(hostile[Verdict::kRejected], 0u);
  EXPECT_GT(hostile[Verdict::kSubnormalScalar], 0u);
}

TEST(CheckpointCodec, ReaderMatchesReferenceOnDivergenceTokens) {
  // Each token in place of, after, and glued to every number of a
  // checkpoint and of a deployment file.
  const std::vector<std::string> tokens = {
      // Where istream >> double and from_chars part ways.
      "+5", "inf", "nan", "1e", "1e+", "1e-400", "1e400",
      // More of the grammar's corners.
      "-inf", "+inf", "INF", "NaN", "infinity", "-nan", "1e-", "1E5", "-0",
      "+0", ".5", "5.", "-.5", "+.5", ".", "-", "+", "e5", "1.5.5", "1-2",
      "1e5e3", "0x1p3", "--5", "00.5", "4.9406564584124654e-324",
      "2.4e-324", "1e-320", "9007199254740993", "18446744073709551615",
      "18446744073709551616", "-1", "2147483648", "-2147483649",
      "4294967296", "5junk", "junk", "1e99999999999", "1e-99999999999",
      "0e99999", "1,5", "3.0", "7e0", "0.0000000000000000000001e-310"};
  CalibrationCheckpoint c;
  c.sequence = 5;
  c.wallTimeS = 1.5;
  c.lastFix.valid = true;
  c.lastFix.hasEllipse = c.lastFix.hasVelocity = c.lastFix.hasTrack = true;
  c.lastFix.trackState = 2;
  TagCalibrationProgress& tag = c.tags[rfid::Epc::forSimulatedTag(7)];
  tag.snapshots.resize(2);
  tag.angleSpectrum = {0.5, 0.25};
  tag.hasOrientationModel = true;
  tag.orientationModel = OrientationModel::fromSeries(
      dsp::FourierSeries{0.1, {0.2, 0.3}, {0.4, 0.5}}, 0.01);
  DeploymentFile d = anyDeployment(5, 0);
  d.rigs[rfid::Epc::forSimulatedTag(1)] = RigSpec{};
  d.orientationModels[rfid::Epc::forSimulatedTag(2)] = tag.orientationModel;

  Tally tally;
  for (const bool checkpoint : {true, false}) {
    const std::string base = checkpoint ? ref::checkpointToString(c)
                                        : ref::deploymentToString(d);
    // Every blank-separated field right of an '=' is a slot.
    std::vector<std::pair<size_t, size_t>> slots;
    for (size_t line = 0; line < base.size();) {
      const size_t end = base.find('\n', line);
      const size_t eq = base.find(" = ", line);
      if (eq < end) {
        for (size_t at = eq + 3; at < end;) {
          const size_t stop = std::min(base.find(' ', at), end);
          slots.emplace_back(at, stop - at);
          at = stop + 1;
        }
      }
      line = end + 1;
    }
    for (const auto& [at, len] : slots) {
      for (const std::string& token : tokens) {
        std::string text = base;
        tally.add(text.replace(at, len, token), checkpoint);
        text = base;
        tally.add(text.insert(at + len, " " + token), checkpoint);
        text = base;
        tally.add(text.insert(at + len, token), checkpoint);
      }
    }
  }
  EXPECT_GT(tally[Verdict::kSame], 0u);
  EXPECT_GT(tally[Verdict::kBothThrow], 0u);
  EXPECT_GT(tally[Verdict::kRejected], 0u);
  EXPECT_GT(tally[Verdict::kSubnormalScalar], 0u);
  EXPECT_GT(tally[Verdict::kExactInteger], 0u);
}

TEST(CheckpointCodec, ReaderMatchesReferenceOnMutations) {
  // Byte flips, insertions, deletions and truncations of writer output.
  static const char kAlphabet[] = "0123456789+-.eE \t\r\n\v#[]=abnfix\0";
  Tally tally;
  for (uint64_t seed = 0; seed < 4000; ++seed) {
    Rng rng(seed);
    const bool checkpoint = seed % 4 != 0;
    std::string text = checkpoint
                           ? ref::checkpointToString(anyCheckpoint(seed, 0))
                           : ref::deploymentToString(anyDeployment(seed, 0));
    for (uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
      const size_t at = text.empty() ? 0 : rng() % text.size();
      switch (rng() % 5) {
        case 0:
          if (!text.empty()) text[at] ^= static_cast<char>(1u << (rng() % 8));
          break;
        case 1:
          if (!text.empty()) text[at] = static_cast<char>(rng());
          break;
        case 2:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                      kAlphabet[rng() % (sizeof(kAlphabet) - 1)]);
          break;
        case 3:
          if (!text.empty()) text.erase(at, 1);
          break;
        default:
          text.resize(at);
          break;
      }
    }
    tally.add(text, checkpoint);
  }
  EXPECT_GT(tally[Verdict::kSame], 0u);
  EXPECT_GT(tally[Verdict::kBothThrow], 0u);
  EXPECT_GT(tally[Verdict::kRejected], 0u);
}

TEST(CheckpointCodec, StreamReadersMatchStringReaders) {
  const DeploymentFile d = anyDeployment(11, 0);
  std::istringstream din(deploymentToString(d));
  EXPECT_TRUE(same(readDeployment(din), d));
  Rng rng(11);
  const OrientationModel m = anyModel(rng, 0);
  std::ostringstream mout;
  writeOrientationModel(mout, m);
  std::istringstream min(mout.str()), refIn(mout.str());
  EXPECT_TRUE(
      same(readOrientationModel(min), ref::readOrientationModel(refIn)));
}

// ---------------------------------------------------------------------------
// Hostile numbers: one test per class the reader now rejects

TEST(CheckpointCodec, IntegerKeysReadAsExactDecimalIntegers) {
  ASSERT_EQ(readError(kBase), "");
  // Negative, non-finite, fractional or out-of-range integers were cast
  // from a double with no check.
  expectRefusedAt(withLine("sequence", "sequence = -1"), 2,
                  "sequence must be a decimal integer");
  expectRefusedAt(withLine("sequence", "sequence = 5.5"), 2,
                  "sequence must be a decimal integer");
  expectRefusedAt(withLine("quarantined_spins", "quarantined_spins = 1e3"), 6,
                  "quarantined_spins must be a decimal integer");
  expectRefusedAt(withLine("snapshot_count", "snapshot_count = nan"), 9,
                  "snapshot_count must be a decimal integer");
  expectRefusedAt(withLine("snapshot", "snapshot = 1 2 0.3 1e300 5"), 10,
                  "snapshot channel must be a decimal integer");
  expectRefusedAt(withLine("track", "track = 4.5 -1 1"), 7,
                  "track state must be a decimal integer");
  expectRefusedAt(withLine("track", "track = 4.5 2 4294967296"), 7,
                  "track model must be a decimal integer");
  // Beyond 2^53 a double would round it.
  const CalibrationCheckpoint c =
      checkpointFromString(withLine("sequence", "sequence = 9007199254740993"));
  EXPECT_EQ(c.sequence, 9007199254740993u);
}

TEST(CheckpointCodec, OrderIsBoundedByTheLinesLeft) {
  // Each coefficient needs its own line, so `order` cannot exceed the
  // lines after it; it used to throw length_error or bad_alloc, or
  // allocate whatever it declared.
  expectRefusedAt(withLine("order", "order = -1"), 13,
                  "order must be a decimal integer");
  expectRefusedAt(withLine("order", "order = 1e12"), 13,
                  "order must be a decimal integer");
  expectRefusedAt(withLine("order", "order = 1000000"), 13,
                  "order 1000000 exceeds the 4 lines left");
  DeploymentFile d;
  d.orientationModels[rfid::Epc::forSimulatedTag(1)] =
      OrientationModel::fromSeries(dsp::FourierSeries{0.5, {}, {}}, 0.0);
  std::string text = deploymentToString(d);
  text.replace(text.find("order = 0"), 9, "order = 4");
  EXPECT_EQ(deploymentFromString(text + "\n\n").orientationModels.size(), 1u);
  try {
    deploymentFromString(text);
    ADD_FAILURE() << "order 4 with 2 lines left read";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(lineNumbered(e.what())) << e.what();
  }
  // A declared snapshot count reserves no more than the text could hold.
  expectRefusedAt(
      withLine("snapshot_count", "snapshot_count = 18446744073709551615"), 12,
      "declares 18446744073709551615 snapshots but holds 1");
}

TEST(CheckpointCodec, CoefficientKeysFailWithALineNumber) {
  // std::stoul used to throw out_of_range / invalid_argument("stoul") with
  // no line, and read "a1x" as a1.
  expectRefusedAt(withLine("a1", "a99999999999999999999 = 0.2"), 15,
                  "coefficient index out of range: a99999999999999999999");
  expectRefusedAt(withLine("a1", "ax = 0.2"), 15,
                  "coefficient index out of range: ax");
  expectRefusedAt(withLine("a1", "a1x = 0.2"), 15,
                  "coefficient index out of range: a1x");
  expectRefusedAt(withLine("b1", "b+1 = 0.2"), 16,
                  "coefficient index out of range: b+1");
}

TEST(CheckpointCodec, MalformedEpcNamesTheLine) {
  // Epc::fromHex's refusal used to surface without a line number.
  std::string text = kBase;
  text.replace(text.find("35A6"), 4, "35Z6");
  expectRefusedAt(text, 8, "Epc::fromHex: non-hex character");
  text = kBase;
  text.replace(text.find("51570003]"), 9, "5157]");
  expectRefusedAt(text, 8, "Epc::fromHex: need exactly 24 hex digits");
}

TEST(CheckpointCodec, NumberListsRejectJunkAfterTheirNumbers) {
  expectRefusedAt(withLine("snapshot", "snapshot = 1 2 0.3 4 5 junk"), 10,
                  "junk after the numbers");
  expectRefusedAt(withLine("spectrum", "spectrum = 1 2 junk 3"), 11,
                  "junk after the numbers");
  expectRefusedAt(withLine("position", "position = 0.5 0.25 nan"), 5,
                  "junk after the numbers");
  expectRefusedAt(withLine("track", "track = 4.5 2 1 #"), 7,
                  "junk after the numbers");
  // Numbers the grammar splits without a blank still count as numbers.
  const CalibrationCheckpoint c =
      checkpointFromString(withLine("spectrum", "spectrum = 1-2.5.5"));
  EXPECT_EQ(c.tags.begin()->second.angleSpectrum,
            (std::vector<double>{1.0, -2.5, 0.5}));
}

TEST(CheckpointCodec, SubnormalScalarsReadBack) {
  // strtod flags a subnormal ERANGE, and std::stod turned that into
  // "number out of range" -- for a value the writer had printed.
  CalibrationCheckpoint c = anyCheckpoint(2, 0);
  c.wallTimeS = kDenormMin;
  c.lastReportTimestampS = -2.2250738585072009e-308;
  c.lastFix.valid = true;
  c.lastFix.confidence = 1e-310;
  const CalibrationCheckpoint back =
      checkpointFromString(checkpointToString(c));
  EXPECT_TRUE(same(back.wallTimeS, kDenormMin));
  EXPECT_TRUE(same(back.lastReportTimestampS, -2.2250738585072009e-308));
  EXPECT_TRUE(same(back.lastFix.confidence, 1e-310));
  EXPECT_EQ(readError(withLine("wall_time_s",
                               "wall_time_s = 4.9406564584124654e-324")),
            "");
  // Underflow to zero and overflow stay out of range.
  expectRefusedAt(withLine("wall_time_s", "wall_time_s = 1e-400"), 3,
                  "number out of range");
  expectRefusedAt(withLine("wall_time_s", "wall_time_s = 1e400"), 3,
                  "number out of range");
}

// ---------------------------------------------------------------------------
// CRC-32

/// The bytewise table-driven CRC-32 that slice-by-8 replaced.
uint32_t bytewiseCrc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(CheckpointCodec, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(runtime::crc32(std::string("123456789")), 0xCBF43926u);
  Rng rng(7);
  std::vector<uint8_t> bytes(4096 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 4096; ++n) {
      const std::span<const uint8_t> data(bytes.data() + offset, n);
      ASSERT_EQ(runtime::crc32(data), bytewiseCrc32(data))
          << "offset " << offset << " length " << n;
    }
  }
}

}  // namespace
}  // namespace tagspin::core
