// The checkpoint and deployment text codec as it was before its
// iostream-free rewrite, kept verbatim as the test oracle: the writer
// formats through std::ostream << std::setprecision(17), the reader walks
// lines with std::getline and scans number lists with istream >> double.
// Test-only; checkpoint_codec_test.cpp holds the production writer to
// these bytes and the production reader to these values.  The only edits
// are mechanical: the namespace, `inline` on every function, the unnamed
// namespaces dropped (a header cannot have them), and two calls qualified
// so that argument-dependent lookup cannot also find the production codec.
#pragma once

#include <cctype>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialization.hpp"

namespace tagspin::core::testing::reference {

inline void writeRig(std::ostream& out, const std::string& section,
                     const rfid::Epc& epc, const RigSpec& rig) {
  out << "[" << section << " " << epc.toHex() << "]\n";
  out << std::setprecision(17);
  out << "center = " << rig.center.x << " " << rig.center.y << " "
      << rig.center.z << "\n";
  out << "radius_m = " << rig.kinematics.radiusM << "\n";
  out << "omega_rad_per_s = " << rig.kinematics.omegaRadPerS << "\n";
  out << "initial_angle = " << rig.kinematics.initialAngle << "\n";
  out << "tag_plane_offset = " << rig.kinematics.tagPlaneOffset << "\n";
}

inline void writeModelBody(std::ostream& out, const OrientationModel& model) {
  const dsp::FourierSeries& s = model.series();
  out << std::setprecision(17);
  out << "order = " << s.order() << "\n";
  out << "a0 = " << s.a0 << "\n";
  for (size_t k = 0; k < s.order(); ++k) {
    out << "a" << (k + 1) << " = " << s.a[k] << "\n";
    out << "b" << (k + 1) << " = " << s.b[k] << "\n";
  }
  out << "fit_residual = " << model.fitResidual() << "\n";
}

struct Parser {
  std::istream& in;
  int lineNo = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("deployment file line " +
                                std::to_string(lineNo) + ": " + what);
  }

  /// Next meaningful line (skips blanks and comments); false on EOF.
  bool next(std::string& line) {
    while (std::getline(in, line)) {
      ++lineNo;
      size_t begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos) continue;
      size_t end = line.find_last_not_of(" \t\r");
      line = line.substr(begin, end - begin + 1);
      if (line.empty() || line[0] == '#') continue;
      return true;
    }
    return false;
  }
};

inline std::pair<std::string, std::string> splitKeyValue(
    Parser& p, const std::string& line) {
  const size_t eq = line.find('=');
  if (eq == std::string::npos) p.fail("expected 'key = value': " + line);
  auto trim = [](std::string s) {
    const size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos) return std::string{};
    const size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
  };
  return {trim(line.substr(0, eq)), trim(line.substr(eq + 1))};
}

inline double parseDouble(Parser& p, const std::string& value) {
  try {
    size_t used = 0;
    const double v = std::stod(value, &used);
    while (used < value.size() &&
           std::isspace(static_cast<unsigned char>(value[used]))) {
      ++used;
    }
    if (used != value.size()) p.fail("trailing junk in number: " + value);
    return v;
  } catch (const std::invalid_argument&) {
    p.fail("not a number: " + value);
  } catch (const std::out_of_range&) {
    p.fail("number out of range: " + value);
  }
}

inline std::vector<double> parseDoubles(Parser& p, const std::string& value,
                                        size_t expected) {
  std::istringstream ss(value);
  std::vector<double> out;
  double v;
  while (ss >> v) out.push_back(v);
  if (out.size() != expected) {
    p.fail("expected " + std::to_string(expected) + " numbers: " + value);
  }
  return out;
}

inline OrientationModel parseModelBody(Parser& p, std::string& line,
                                       bool& haveLine) {
  size_t order = 0;
  dsp::FourierSeries s;
  double residual = 0.0;
  bool sawOrder = false;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;  // next section
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "order") {
      order = static_cast<size_t>(parseDouble(p, value));
      s.a.assign(order, 0.0);
      s.b.assign(order, 0.0);
      sawOrder = true;
    } else if (key == "a0") {
      s.a0 = parseDouble(p, value);
    } else if (key == "fit_residual") {
      residual = parseDouble(p, value);
    } else if (key.size() >= 2 && (key[0] == 'a' || key[0] == 'b')) {
      if (!sawOrder) p.fail("coefficient before 'order'");
      const size_t k = static_cast<size_t>(std::stoul(key.substr(1)));
      if (k < 1 || k > order) p.fail("coefficient index out of range: " + key);
      (key[0] == 'a' ? s.a : s.b)[k - 1] = parseDouble(p, value);
    } else {
      p.fail("unknown key: " + key);
    }
  }
  if (!sawOrder) p.fail("orientation model missing 'order'");
  return OrientationModel::fromSeries(std::move(s), residual);
}

inline RigSpec parseRigBody(Parser& p, std::string& line, bool& haveLine) {
  RigSpec rig;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "center") {
      const auto v = parseDoubles(p, value, 3);
      rig.center = {v[0], v[1], v[2]};
    } else if (key == "radius_m") {
      rig.kinematics.radiusM = parseDouble(p, value);
      // No profile can be built for a rig without a positive radius.
      if (!std::isfinite(rig.kinematics.radiusM) ||
          rig.kinematics.radiusM <= 0.0) {
        p.fail("radius_m must be finite and > 0: " + value);
      }
    } else if (key == "omega_rad_per_s") {
      rig.kinematics.omegaRadPerS = parseDouble(p, value);
    } else if (key == "initial_angle") {
      rig.kinematics.initialAngle = parseDouble(p, value);
    } else if (key == "tag_plane_offset") {
      rig.kinematics.tagPlaneOffset = parseDouble(p, value);
    } else {
      p.fail("unknown key: " + key);
    }
  }
  return rig;
}


inline void writeDeployment(std::ostream& out,
                            const DeploymentFile& deployment) {
  out << "# Tagspin deployment file\n";
  for (const auto& [epc, rig] : deployment.rigs) {
    writeRig(out, "rig", epc, rig);
  }
  for (const auto& [epc, rig] : deployment.verticalRigs) {
    writeRig(out, "vertical_rig", epc, rig);
  }
  for (const auto& [epc, model] : deployment.orientationModels) {
    out << "[orientation_model " << epc.toHex() << "]\n";
    writeModelBody(out, model);
  }
}

inline DeploymentFile readDeployment(std::istream& in) {
  DeploymentFile deployment;
  Parser p{in};
  std::string line;
  bool haveLine = p.next(line);
  while (haveLine) {
    if (line.front() != '[' || line.back() != ']') {
      p.fail("expected a [section] header: " + line);
    }
    const std::string header = line.substr(1, line.size() - 2);
    const size_t space = header.find(' ');
    if (space == std::string::npos) p.fail("section needs an EPC: " + line);
    const std::string type = header.substr(0, space);
    const rfid::Epc epc = rfid::Epc::fromHex(header.substr(space + 1));
    if (type == "rig") {
      deployment.rigs[epc] = parseRigBody(p, line, haveLine);
    } else if (type == "vertical_rig") {
      deployment.verticalRigs[epc] = parseRigBody(p, line, haveLine);
    } else if (type == "orientation_model") {
      deployment.orientationModels[epc] = parseModelBody(p, line, haveLine);
    } else {
      p.fail("unknown section type: " + type);
    }
  }
  return deployment;
}

inline void writeCheckpoint(std::ostream& out,
                            const CalibrationCheckpoint& ckpt) {
  out << "# Tagspin calibration checkpoint\n";
  out << "[checkpoint]\n";
  out << std::setprecision(17);
  out << "sequence = " << ckpt.sequence << "\n";
  out << "wall_time_s = " << ckpt.wallTimeS << "\n";
  out << "last_report_timestamp_s = " << ckpt.lastReportTimestampS << "\n";
  if (ckpt.lastFix.valid) {
    const FixRecord& fix = ckpt.lastFix;
    out << "[last_fix]\n";
    out << "position = " << fix.x << " " << fix.y << "\n";
    out << "confidence = " << fix.confidence << "\n";
    out << "inlier_fraction = " << fix.inlierFraction << "\n";
    out << "quarantined_spins = " << fix.quarantinedSpins << "\n";
    if (fix.hasEllipse) {
      out << "ellipse = " << fix.ellipseSemiMajorM << " "
          << fix.ellipseSemiMinorM << " " << fix.ellipseOrientationRad << " "
          << fix.ellipseConfidence << "\n";
    }
    if (fix.hasVelocity) {
      out << "velocity = " << fix.velocityX << " " << fix.velocityY << "\n";
    }
    if (fix.hasTrack) {
      out << "track = " << fix.trackTimeS << " " << fix.trackState << " "
          << fix.trackModel << "\n";
    }
  }
  for (const auto& [epc, tag] : ckpt.tags) {
    out << "[tag_progress " << epc.toHex() << "]\n";
    out << "snapshot_count = " << tag.snapshots.size() << "\n";
    for (const Snapshot& s : tag.snapshots) {
      out << "snapshot = " << s.timeS << " " << s.phaseRad << " " << s.lambdaM
          << " " << s.channel << " " << s.rssiDbm << "\n";
    }
    if (!tag.angleSpectrum.empty()) {
      out << "spectrum =";
      for (double v : tag.angleSpectrum) out << " " << v;
      out << "\n";
    }
    if (tag.hasOrientationModel) {
      out << "[tag_model " << epc.toHex() << "]\n";
      writeModelBody(out, tag.orientationModel);
    }
  }
}


inline TagCalibrationProgress parseTagProgressBody(Parser& p,
                                                   std::string& line,
                                                   bool& haveLine) {
  TagCalibrationProgress tag;
  size_t declaredCount = 0;
  bool sawCount = false;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "snapshot_count") {
      declaredCount = static_cast<size_t>(parseDouble(p, value));
      sawCount = true;
    } else if (key == "snapshot") {
      const auto v = parseDoubles(p, value, 5);
      Snapshot s;
      s.timeS = v[0];
      s.phaseRad = v[1];
      s.lambdaM = v[2];
      s.channel = static_cast<int>(v[3]);
      s.rssiDbm = v[4];
      tag.snapshots.push_back(s);
    } else if (key == "spectrum") {
      std::istringstream ss(value);
      double v;
      while (ss >> v) tag.angleSpectrum.push_back(v);
    } else {
      p.fail("unknown key: " + key);
    }
  }
  if (!sawCount) p.fail("tag_progress missing 'snapshot_count'");
  if (tag.snapshots.size() != declaredCount) {
    p.fail("tag_progress declares " + std::to_string(declaredCount) +
           " snapshots but holds " + std::to_string(tag.snapshots.size()) +
           " (truncated checkpoint?)");
  }
  return tag;
}


inline CalibrationCheckpoint readCheckpoint(std::istream& in) {
  CalibrationCheckpoint ckpt;
  Parser p{in};
  std::string line;
  bool haveLine = p.next(line);
  bool sawHeader = false;
  while (haveLine) {
    if (line.front() != '[' || line.back() != ']') {
      p.fail("expected a [section] header: " + line);
    }
    const std::string header = line.substr(1, line.size() - 2);
    const size_t space = header.find(' ');
    const std::string type =
        space == std::string::npos ? header : header.substr(0, space);
    if (type == "checkpoint") {
      sawHeader = true;
      while ((haveLine = p.next(line))) {
        if (line[0] == '[') break;
        const auto [key, value] = splitKeyValue(p, line);
        if (key == "sequence") {
          ckpt.sequence = static_cast<uint64_t>(parseDouble(p, value));
        } else if (key == "wall_time_s") {
          ckpt.wallTimeS = parseDouble(p, value);
        } else if (key == "last_report_timestamp_s") {
          ckpt.lastReportTimestampS = parseDouble(p, value);
        } else {
          p.fail("unknown key: " + key);
        }
      }
    } else if (type == "last_fix") {
      ckpt.lastFix.valid = true;
      while ((haveLine = p.next(line))) {
        if (line[0] == '[') break;
        const auto [key, value] = splitKeyValue(p, line);
        if (key == "position") {
          const auto v = parseDoubles(p, value, 2);
          ckpt.lastFix.x = v[0];
          ckpt.lastFix.y = v[1];
        } else if (key == "confidence") {
          ckpt.lastFix.confidence = parseDouble(p, value);
        } else if (key == "inlier_fraction") {
          ckpt.lastFix.inlierFraction = parseDouble(p, value);
        } else if (key == "quarantined_spins") {
          ckpt.lastFix.quarantinedSpins =
              static_cast<uint64_t>(parseDouble(p, value));
        } else if (key == "ellipse") {
          const auto v = parseDoubles(p, value, 4);
          ckpt.lastFix.hasEllipse = true;
          ckpt.lastFix.ellipseSemiMajorM = v[0];
          ckpt.lastFix.ellipseSemiMinorM = v[1];
          ckpt.lastFix.ellipseOrientationRad = v[2];
          ckpt.lastFix.ellipseConfidence = v[3];
        } else if (key == "velocity") {
          const auto v = parseDoubles(p, value, 2);
          ckpt.lastFix.hasVelocity = true;
          ckpt.lastFix.velocityX = v[0];
          ckpt.lastFix.velocityY = v[1];
        } else if (key == "track") {
          const auto v = parseDoubles(p, value, 3);
          ckpt.lastFix.hasTrack = true;
          ckpt.lastFix.trackTimeS = v[0];
          ckpt.lastFix.trackState = static_cast<uint32_t>(v[1]);
          ckpt.lastFix.trackModel = static_cast<uint32_t>(v[2]);
        } else {
          p.fail("unknown key: " + key);
        }
      }
    } else if (type == "tag_progress") {
      if (space == std::string::npos) p.fail("section needs an EPC: " + line);
      const rfid::Epc epc = rfid::Epc::fromHex(header.substr(space + 1));
      ckpt.tags[epc] = parseTagProgressBody(p, line, haveLine);
    } else if (type == "tag_model") {
      if (space == std::string::npos) p.fail("section needs an EPC: " + line);
      const rfid::Epc epc = rfid::Epc::fromHex(header.substr(space + 1));
      TagCalibrationProgress& tag = ckpt.tags[epc];
      tag.orientationModel = parseModelBody(p, line, haveLine);
      tag.hasOrientationModel = true;
    } else {
      p.fail("unknown section type: " + type);
    }
  }
  if (!sawHeader) {
    throw std::invalid_argument(
        "checkpoint: missing [checkpoint] header section");
  }
  return ckpt;
}

inline std::string checkpointToString(const CalibrationCheckpoint& ckpt) {
  std::ostringstream out;
  reference::writeCheckpoint(out, ckpt);
  return out.str();
}

inline CalibrationCheckpoint checkpointFromString(const std::string& text) {
  std::istringstream in(text);
  return readCheckpoint(in);
}

inline std::string deploymentToString(const DeploymentFile& deployment) {
  std::ostringstream out;
  reference::writeDeployment(out, deployment);
  return out.str();
}

inline DeploymentFile deploymentFromString(const std::string& text) {
  std::istringstream in(text);
  return readDeployment(in);
}

inline void writeOrientationModel(std::ostream& out,
                                  const OrientationModel& model) {
  out << "# Tagspin orientation model\n";
  writeModelBody(out, model);
}

inline OrientationModel readOrientationModel(std::istream& in) {
  Parser p{in};
  std::string line;
  bool haveLine = false;
  // parseModelBody pre-reads lines itself; emulate the section-body flow.
  OrientationModel model = parseModelBody(p, line, haveLine);
  if (haveLine) p.fail("unexpected trailing section: " + line);
  return model;
}

}  // namespace tagspin::core::testing::reference
