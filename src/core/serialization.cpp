#include "core/serialization.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

namespace tagspin::core {

namespace {

// ---------------------------------------------------------------------------
// Writer.  Every number of the dialect goes through TextOut: doubles as
// %.17g (std::to_chars general at precision 17, the exact characters
// `std::ostream << std::setprecision(17)` prints), integers in plain
// decimal.

/// Longest %.17g of a double, "-2.2250738585072014e-308", plus slack.
constexpr size_t kMaxNumberChars = 32;
/// Upper bound of any line but a spectrum: the longest, a snapshot line of
/// four doubles and an int, takes 123 bytes.
constexpr size_t kMaxLine = 128;

class TextOut {
 public:
  explicit TextOut(std::string& out) : out_(out) {}

  TextOut& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  TextOut& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  TextOut& operator<<(double v) {
    return put(std::to_chars(buf_, buf_ + kMaxNumberChars, v,
                             std::chars_format::general, 17));
  }
  template <std::integral T>
  TextOut& operator<<(T v) {
    return put(std::to_chars(buf_, buf_ + kMaxNumberChars, v));
  }

 private:
  TextOut& put(std::to_chars_result r) {
    out_.append(buf_, r.ptr);
    return *this;
  }

  std::string& out_;
  char buf_[kMaxNumberChars]{};
};

void writeRig(TextOut& out, std::string_view section, const rfid::Epc& epc,
              const RigSpec& rig) {
  out << "[" << section << " " << epc.toHex() << "]\n";
  out << "center = " << rig.center.x << " " << rig.center.y << " "
      << rig.center.z << "\n";
  out << "radius_m = " << rig.kinematics.radiusM << "\n";
  out << "omega_rad_per_s = " << rig.kinematics.omegaRadPerS << "\n";
  out << "initial_angle = " << rig.kinematics.initialAngle << "\n";
  out << "tag_plane_offset = " << rig.kinematics.tagPlaneOffset << "\n";
}

void writeModelBody(TextOut& out, const OrientationModel& model) {
  const dsp::FourierSeries& s = model.series();
  out << "order = " << s.order() << "\n";
  out << "a0 = " << s.a0 << "\n";
  for (size_t k = 0; k < s.order(); ++k) {
    out << "a" << (k + 1) << " = " << s.a[k] << "\n";
    out << "b" << (k + 1) << " = " << s.b[k] << "\n";
  }
  out << "fit_residual = " << model.fitResidual() << "\n";
}

// ---------------------------------------------------------------------------
// Reader.  The grammar is the one the iostream reader accepted (DESIGN.md
// §9, "Checkpoint text"), minus the hostile forms it let through: integer
// keys are plain decimal integers of their type, a number list holds
// nothing but its numbers, and `order` cannot promise more coefficients
// than the file has lines.

/// isspace() in the "C" locale.
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool isDigit(char c) { return c >= '0' && c <= '9'; }

std::string_view trim(std::string_view s, std::string_view blanks) {
  const size_t b = s.find_first_not_of(blanks);
  if (b == std::string_view::npos) return {};
  return s.substr(b, s.find_last_not_of(blanks) - b + 1);
}

std::string operator+(const char* a, std::string_view b) {
  std::string s(a);
  s.append(b);
  return s;
}

struct Parser {
  std::string_view text;
  size_t pos = 0;
  int lineNo = 0;
  size_t lineCount = std::string_view::npos;  // counted on first use

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("deployment file line " +
                                std::to_string(lineNo) + ": " + what);
  }

  /// Next meaningful line (skips blanks and comments); false at the end.
  /// Lines split at '\n' and are trimmed of spaces, tabs and '\r', as
  /// std::getline plus the old trim did.
  bool next(std::string_view& line) {
    while (pos < text.size()) {
      size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) end = text.size();
      line = trim(text.substr(pos, end - pos), " \t\r");
      pos = end + 1;
      ++lineNo;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  }

  /// Lines after the current one, blank and comment lines included.
  size_t linesLeft() {
    if (lineCount == std::string_view::npos) {
      lineCount = static_cast<size_t>(
          std::count(text.begin(), text.end(), '\n'));
      if (!text.empty() && text.back() != '\n') ++lineCount;
    }
    return lineCount - static_cast<size_t>(lineNo);
  }

  size_t bytesLeft() const { return pos < text.size() ? text.size() - pos : 0; }
};

std::pair<std::string_view, std::string_view> splitKeyValue(
    Parser& p, std::string_view line) {
  const size_t eq = line.find('=');
  if (eq == std::string_view::npos) {
    p.fail("expected 'key = value': " + line);
  }
  return {trim(line.substr(0, eq), " \t"), trim(line.substr(eq + 1), " \t")};
}

/// A scalar key's number: std::stod's grammar (so "nan" and "inf", which
/// the writer prints for non-finite values, read back), trailing blanks
/// allowed.  Subnormals read back too, though strtod flags them ERANGE.
double parseDouble(Parser& p, std::string_view value) {
  const std::string s(value);  // strtod needs the terminator
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) p.fail("not a number: " + s);
  if (errno == ERANGE && std::fpclassify(v) != FP_SUBNORMAL) {
    p.fail("number out of range: " + s);
  }
  while (*end != '\0' && isSpace(*end)) ++end;
  if (end != s.c_str() + s.size()) p.fail("trailing junk in number: " + s);
  return v;
}

/// `digits` as a T, or nothing when it is not a plain decimal integer
/// ('-' allowed for signed T only) within T's range.
template <std::integral T>
std::optional<T> decimal(std::string_view digits) {
  T v{};
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), v);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return v;
}

/// An integer key's value: a plain decimal integer of T, blanks around it
/// allowed.
template <std::integral T>
T parseInteger(Parser& p, std::string_view key, std::string_view value) {
  const std::optional<T> v = decimal<T>(trim(value, " \t\n\v\f\r"));
  if (!v) {
    p.fail(std::string(key) + " must be a decimal integer in range: " +
           std::string(value));
  }
  return *v;
}

/// The numbers of one list-valued key, left to right.  Numbers follow the
/// grammar `std::istream >> double` accepted (libstdc++'s num_get): an
/// optional sign, digits with at most one '.', then -- only after a
/// mantissa digit -- 'e' or 'E', an optional sign and the exponent's
/// digits.  Numbers need no blank between them where the grammar ends one
/// ("1-2" is 1 and -2).  Unlike std::from_chars the grammar takes a '+'
/// sign, refuses "inf" and "nan", refuses a dangling exponent ("1e",
/// "1e+") and reads an underflow as ±0; overflow fails in both.
class NumberList {
 public:
  NumberList(Parser& p, std::string_view value, size_t expected)
      : p_(p), value_(value), expected_(expected) {}

  /// The next number into `v`; false, consuming nothing, at the end or
  /// where the stream would have failed.
  bool next(double& v) {
    if (atEnd()) return false;
    const size_t begin = pos_;
    if (scan(v)) return true;
    pos_ = begin;
    return false;
  }

  double real() {
    double v = 0.0;
    if (!next(v)) tooFew();
    return v;
  }

  /// The next number, which must be a plain decimal integer of T.
  template <std::integral T>
  T integer(std::string_view field) {
    double ignored = 0.0;
    if (!next(ignored)) tooFew();
    const std::optional<T> v = decimal<T>(token_);
    if (!v) {
      p_.fail(std::string(field) + " must be a decimal integer in range: " +
              std::string(value_));
    }
    return *v;
  }

  bool atEnd() {
    while (pos_ < value_.size() && isSpace(value_[pos_])) ++pos_;
    return pos_ == value_.size();
  }

  /// Nothing may follow the list's numbers.
  void finish() {
    double ignored = 0.0;
    if (atEnd()) return;
    if (next(ignored)) tooFew();  // one number too many
    p_.fail("junk after the numbers: " + std::string(value_));
  }

 private:
  [[noreturn]] void tooFew() const {
    p_.fail("expected " + std::to_string(expected_) +
            " numbers: " + std::string(value_));
  }

  char at(size_t i) const { return i < value_.size() ? value_[i] : '\0'; }

  bool scan(double& v) {
    const size_t begin = pos_;
    if (at(pos_) == '+' || at(pos_) == '-') ++pos_;
    bool mantissa = false;
    bool dot = false;
    for (;; ++pos_) {
      if (isDigit(at(pos_))) {
        mantissa = true;
      } else if (at(pos_) == '.' && !dot) {
        dot = true;
      } else {
        break;
      }
    }
    if (mantissa && (at(pos_) == 'e' || at(pos_) == 'E')) {
      ++pos_;
      if (at(pos_) == '+' || at(pos_) == '-') ++pos_;
      while (isDigit(at(pos_))) ++pos_;
    }
    token_ = value_.substr(begin, pos_ - begin);
    const char* first = token_.data();
    const char* last = first + token_.size();
    if (first != last && *first == '+') ++first;  // from_chars takes no '+'
    const auto [ptr, ec] = std::from_chars(first, last, v);
    // A dangling exponent ("1e", "1e+"): from_chars reads the mantissa
    // alone, the stream refused the number.
    if (ptr != last) return false;
    if (ec == std::errc::result_out_of_range) {
      // strtod tells underflow (±0, which the stream read) from overflow.
      v = std::strtod(std::string(token_).c_str(), nullptr);
      return !std::isinf(v);
    }
    return ec == std::errc();
  }

  Parser& p_;
  std::string_view value_;
  size_t expected_;
  size_t pos_ = 0;
  std::string_view token_;
};

OrientationModel parseModelBody(Parser& p, std::string_view& line,
                                bool& haveLine) {
  size_t order = 0;
  dsp::FourierSeries s;
  double residual = 0.0;
  bool sawOrder = false;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;  // next section
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "order") {
      order = parseInteger<size_t>(p, key, value);
      // Each coefficient needs its own line: a larger order is a lie that
      // would only allocate.
      if (order > p.linesLeft()) {
        p.fail("order " + std::to_string(order) + " exceeds the " +
               std::to_string(p.linesLeft()) + " lines left");
      }
      s.a.assign(order, 0.0);
      s.b.assign(order, 0.0);
      sawOrder = true;
    } else if (key == "a0") {
      s.a0 = parseDouble(p, value);
    } else if (key == "fit_residual") {
      residual = parseDouble(p, value);
    } else if (key.size() >= 2 && (key[0] == 'a' || key[0] == 'b')) {
      if (!sawOrder) p.fail("coefficient before 'order'");
      const std::optional<size_t> k = decimal<size_t>(key.substr(1));
      if (!k || *k < 1 || *k > order) {
        p.fail("coefficient index out of range: " + key);
      }
      (key[0] == 'a' ? s.a : s.b)[*k - 1] = parseDouble(p, value);
    } else {
      p.fail("unknown key: " + key);
    }
  }
  if (!sawOrder) p.fail("orientation model missing 'order'");
  return OrientationModel::fromSeries(std::move(s), residual);
}

RigSpec parseRigBody(Parser& p, std::string_view& line, bool& haveLine) {
  RigSpec rig;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "center") {
      NumberList v(p, value, 3);
      rig.center.x = v.real();
      rig.center.y = v.real();
      rig.center.z = v.real();
      v.finish();
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

/// A "[type epc]" header, split; `epc` is empty when there is no space.
struct SectionHeader {
  std::string_view type;
  std::string_view epc;
  bool hasEpc = false;
};

SectionHeader parseHeader(Parser& p, std::string_view line) {
  if (line.front() != '[' || line.back() != ']') {
    p.fail("expected a [section] header: " + line);
  }
  const std::string_view header = line.substr(1, line.size() - 2);
  const size_t space = header.find(' ');
  if (space == std::string_view::npos) return {header, {}, false};
  return {header.substr(0, space), header.substr(space + 1), true};
}

/// The header's EPC; a malformed one fails with the line number too.
rfid::Epc parseEpc(Parser& p, std::string_view hex) {
  try {
    return rfid::Epc::fromHex(std::string(hex));
  } catch (const std::invalid_argument& e) {
    p.fail(e.what());
  }
}

std::string slurp(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

std::string deploymentToString(const DeploymentFile& deployment) {
  std::string text;
  TextOut out(text);
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
  return text;
}

void writeDeployment(std::ostream& out, const DeploymentFile& deployment) {
  const std::string text = deploymentToString(deployment);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

DeploymentFile deploymentFromString(std::string_view text) {
  DeploymentFile deployment;
  Parser p{text};
  std::string_view line;
  bool haveLine = p.next(line);
  while (haveLine) {
    const SectionHeader h = parseHeader(p, line);
    if (!h.hasEpc) p.fail("section needs an EPC: " + line);
    const rfid::Epc epc = parseEpc(p, h.epc);
    if (h.type == "rig") {
      deployment.rigs[epc] = parseRigBody(p, line, haveLine);
    } else if (h.type == "vertical_rig") {
      deployment.verticalRigs[epc] = parseRigBody(p, line, haveLine);
    } else if (h.type == "orientation_model") {
      deployment.orientationModels[epc] = parseModelBody(p, line, haveLine);
    } else {
      p.fail("unknown section type: " + h.type);
    }
  }
  return deployment;
}

DeploymentFile readDeployment(std::istream& in) {
  return deploymentFromString(slurp(in));
}

size_t checkpointSizeBound(const CalibrationCheckpoint& ckpt) {
  // The slack (the header and [last_fix] take far less than their 16
  // lines) also lets CheckpointStore::frame put its header in front of the
  // text without reallocating.
  size_t bound = 16 * kMaxLine;
  for (const auto& [epc, tag] : ckpt.tags) {
    bound += (3 + tag.snapshots.size()) * kMaxLine +
             tag.angleSpectrum.size() * (kMaxNumberChars + 1);
    if (tag.hasOrientationModel) {
      bound += (2 * tag.orientationModel.series().order() + 4) * kMaxLine;
    }
  }
  return bound;
}

std::string checkpointToString(const CalibrationCheckpoint& ckpt) {
  // Sized once: untouched reserved pages never become resident, while
  // growth by doubling would copy the text and leave the old buffers
  // behind in the heap.
  std::string text;
  text.reserve(checkpointSizeBound(ckpt));
  appendCheckpoint(text, ckpt);
  return text;
}

void appendCheckpoint(std::string& text, const CalibrationCheckpoint& ckpt) {
  TextOut out(text);
  out << "# Tagspin calibration checkpoint\n";
  out << "[checkpoint]\n";
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

void writeCheckpoint(std::ostream& out, const CalibrationCheckpoint& ckpt) {
  const std::string text = checkpointToString(ckpt);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

namespace {

/// Shortest possible snapshot line, "snapshot=0-0-0-0-0": a declared count
/// reserves no more snapshots than the bytes left could hold.
constexpr size_t kMinSnapshotLine = 18;

TagCalibrationProgress parseTagProgressBody(Parser& p, std::string_view& line,
                                            bool& haveLine) {
  TagCalibrationProgress tag;
  size_t declaredCount = 0;
  bool sawCount = false;
  while ((haveLine = p.next(line))) {
    if (line[0] == '[') break;
    const auto [key, value] = splitKeyValue(p, line);
    if (key == "snapshot_count") {
      declaredCount = parseInteger<size_t>(p, key, value);
      tag.snapshots.reserve(
          std::min(declaredCount, p.bytesLeft() / kMinSnapshotLine));
      sawCount = true;
    } else if (key == "snapshot") {
      NumberList v(p, value, 5);
      Snapshot& s = tag.snapshots.emplace_back();
      s.timeS = v.real();
      s.phaseRad = v.real();
      s.lambdaM = v.real();
      s.channel = v.integer<int>("snapshot channel");
      s.rssiDbm = v.real();
      v.finish();
    } else if (key == "spectrum") {
      NumberList v(p, value, 0);
      for (double x; v.next(x);) tag.angleSpectrum.push_back(x);
      v.finish();
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

}  // namespace

CalibrationCheckpoint checkpointFromString(std::string_view text) {
  CalibrationCheckpoint ckpt;
  Parser p{text};
  std::string_view line;
  bool haveLine = p.next(line);
  bool sawHeader = false;
  while (haveLine) {
    const SectionHeader h = parseHeader(p, line);
    if (h.type == "checkpoint") {
      sawHeader = true;
      while ((haveLine = p.next(line))) {
        if (line[0] == '[') break;
        const auto [key, value] = splitKeyValue(p, line);
        if (key == "sequence") {
          ckpt.sequence = parseInteger<uint64_t>(p, key, value);
        } else if (key == "wall_time_s") {
          ckpt.wallTimeS = parseDouble(p, value);
        } else if (key == "last_report_timestamp_s") {
          ckpt.lastReportTimestampS = parseDouble(p, value);
        } else {
          p.fail("unknown key: " + key);
        }
      }
    } else if (h.type == "last_fix") {
      FixRecord& fix = ckpt.lastFix;
      fix.valid = true;
      while ((haveLine = p.next(line))) {
        if (line[0] == '[') break;
        const auto [key, value] = splitKeyValue(p, line);
        if (key == "position") {
          NumberList v(p, value, 2);
          fix.x = v.real();
          fix.y = v.real();
          v.finish();
        } else if (key == "confidence") {
          fix.confidence = parseDouble(p, value);
        } else if (key == "inlier_fraction") {
          fix.inlierFraction = parseDouble(p, value);
        } else if (key == "quarantined_spins") {
          fix.quarantinedSpins = parseInteger<uint64_t>(p, key, value);
        } else if (key == "ellipse") {
          NumberList v(p, value, 4);
          fix.ellipseSemiMajorM = v.real();
          fix.ellipseSemiMinorM = v.real();
          fix.ellipseOrientationRad = v.real();
          fix.ellipseConfidence = v.real();
          v.finish();
          fix.hasEllipse = true;
        } else if (key == "velocity") {
          NumberList v(p, value, 2);
          fix.velocityX = v.real();
          fix.velocityY = v.real();
          v.finish();
          fix.hasVelocity = true;
        } else if (key == "track") {
          NumberList v(p, value, 3);
          fix.trackTimeS = v.real();
          fix.trackState = v.integer<uint32_t>("track state");
          fix.trackModel = v.integer<uint32_t>("track model");
          v.finish();
          fix.hasTrack = true;
        } else {
          p.fail("unknown key: " + key);
        }
      }
    } else if (h.type == "tag_progress") {
      if (!h.hasEpc) p.fail("section needs an EPC: " + line);
      const rfid::Epc epc = parseEpc(p, h.epc);
      ckpt.tags[epc] = parseTagProgressBody(p, line, haveLine);
    } else if (h.type == "tag_model") {
      if (!h.hasEpc) p.fail("section needs an EPC: " + line);
      const rfid::Epc epc = parseEpc(p, h.epc);
      TagCalibrationProgress& tag = ckpt.tags[epc];
      tag.orientationModel = parseModelBody(p, line, haveLine);
      tag.hasOrientationModel = true;
    } else {
      p.fail("unknown section type: " + h.type);
    }
  }
  if (!sawHeader) {
    throw std::invalid_argument(
        "checkpoint: missing [checkpoint] header section");
  }
  return ckpt;
}

CalibrationCheckpoint readCheckpoint(std::istream& in) {
  return checkpointFromString(slurp(in));
}

void writeOrientationModel(std::ostream& out, const OrientationModel& model) {
  std::string text;
  TextOut body(text);
  body << "# Tagspin orientation model\n";
  writeModelBody(body, model);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

OrientationModel readOrientationModel(std::istream& in) {
  const std::string text = slurp(in);
  Parser p{text};
  std::string_view line;
  bool haveLine = false;
  // parseModelBody pre-reads lines itself; emulate the section-body flow.
  OrientationModel model = parseModelBody(p, line, haveLine);
  if (haveLine) p.fail("unexpected trailing section: " + line);
  return model;
}

}  // namespace tagspin::core
