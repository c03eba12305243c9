#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "probe.hpp"

namespace perfbench {
namespace {

double clockS(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile double probeSink = 0.0;

// Probe repetitions per part: enough that the probe outlasts the ~10 ms
// scale of the host's fastest speed jumps, few enough to keep probing a
// small share of the run.
constexpr int kProbeReps = 2;

}  // namespace

double nowS() { return clockS(CLOCK_MONOTONIC); }

ProbePart parseProbePart(const std::string& name) {
  if (name == "fp") return ProbePart::kFp;
  if (name == "int") return ProbePart::kInt;
  if (name == "both") return ProbePart::kBoth;
  throw std::invalid_argument("unknown probe part '" + name + "'");
}

const char* probePartName(ProbePart part) {
  switch (part) {
    case ProbePart::kFp: return "fp";
    case ProbePart::kInt: return "int";
    case ProbePart::kBoth: return "both";
  }
  return "?";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Meter::Meter(ProbePart part, ProbeNominal nominal, double cadenceS,
             double elasticity)
    : part_(part),
      nominal_(nominal),
      cadenceS_(cadenceS),
      elasticity_(elasticity) {}

void Meter::setElasticity(const std::string& series, double k) {
  seriesElasticity_[series] = k;
}

void Meter::add(const std::string& series, double rawS) {
  open_.push_back({series, rawS});
  openS_ += rawS;
}

void Meter::maybeProbe() {
  if (openS_ >= cadenceS_) probe();
}

void Meter::probe() {
  const double start = nowS();
  const double cpuProc0 = clockS(CLOCK_PROCESS_CPUTIME_ID);
  const double cpuThread0 = clockS(CLOCK_THREAD_CPUTIME_ID);
  double fpS = 0.0;
  double intS = 0.0;
  for (int r = 0; r < kProbeReps; ++r) {
    const double t0 = nowS();
    probeSink = probeSink + probeFp();
    const double t1 = nowS();
    probeSink = probeSink + probeInt();
    const double t2 = nowS();
    fpS += t1 - t0;
    intS += t2 - t1;
  }
  fpS /= kProbeReps;
  intS /= kProbeReps;
  const double cpuProc = clockS(CLOCK_PROCESS_CPUTIME_ID) - cpuProc0;
  const double cpuThread = clockS(CLOCK_THREAD_CPUTIME_ID) - cpuThread0;
  if (cpuProc > cpuThread * 1.02 + 1e-4) ++cpuViolations_;
  probeFp_.push_back(fpS);
  probeInt_.push_back(intS);
  probeTimeS_ += nowS() - start;

  const double fpRef = lastFpS_ > 0.0 ? 0.5 * (lastFpS_ + fpS) : fpS;
  const double intRef = lastIntS_ > 0.0 ? 0.5 * (lastIntS_ + intS) : intS;
  for (const Pending& p : open_) {
    samples_[p.series].push_back({p.rawS, fpRef, intRef});
  }
  open_.clear();
  openS_ = 0.0;
  lastFpS_ = fpS;
  lastIntS_ = intS;
}

std::vector<double> Meter::normalized(const std::string& series) const {
  std::vector<double> out;
  const auto it = samples_.find(series);
  if (it == samples_.end()) return out;
  const auto own = seriesElasticity_.find(series);
  const double k = own != seriesElasticity_.end() ? own->second : elasticity_;
  for (const Sample& s : it->second) {
    double nominal = nominal_.fpS + nominal_.intS;
    double reference = s.fpRefS + s.intRefS;
    if (part_ == ProbePart::kFp) {
      nominal = nominal_.fpS;
      reference = s.fpRefS;
    } else if (part_ == ProbePart::kInt) {
      nominal = nominal_.intS;
      reference = s.intRefS;
    }
    out.push_back(s.rawS * std::pow(nominal / reference, k));
  }
  return out;
}

std::vector<double> Meter::raw(const std::string& series) const {
  std::vector<double> out;
  const auto it = samples_.find(series);
  if (it == samples_.end()) return out;
  for (const Sample& s : it->second) out.push_back(s.rawS);
  return out;
}

double Meter::sumNormalized(const std::string& series) const {
  double s = 0.0;
  for (double v : normalized(series)) s += v;
  return s;
}

double Meter::sumRaw(const std::string& series) const {
  double s = 0.0;
  for (double v : raw(series)) s += v;
  return s;
}

void Meter::reset() {
  open_.clear();
  openS_ = 0.0;
  samples_.clear();
  probeFp_.clear();
  probeInt_.clear();
  probeTimeS_ = 0.0;
  cpuViolations_ = 0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, nowS(), 0.0, tracer_->open_, tracer_->unit_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  Span& s = tracer_->spans_[static_cast<size_t>(index_)];
  s.endS = nowS();
  tracer_->open_ = s.parent;
  tracer_->meter_.add(s.name, s.endS - s.startS);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> childS(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) childS[static_cast<size_t>(s.parent)] += s.endS - s.startS;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = spans_[i].endS - spans_[i].startS;
    ++t.count;
    t.totalS += d;
    t.selfS += d - childS[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().startS;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"unit\":%d}\n",
                  i, s.name, s.startS - origin, s.endS - origin, s.parent,
                  s.unit);
    out << line;
  }
  for (const auto& [name, t] : totals()) {
    std::snprintf(line, sizeof(line),
                  "{\"summary\":\"%s\",\"count\":%llu,\"total_s\":%.9f,"
                  "\"self_s\":%.9f}\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.totalS, t.selfS);
    out << line;
  }
  return static_cast<bool>(out);
}

std::string metricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[160];
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
