// Measurement core of the benchmark: host-drift normalization, in-memory
// trace spans and result output.
//
// On a shared 4-vCPU KVM guest (Intel Xeon, 2.1 GHz) each vCPU changes
// speed by up to 2.5x within seconds, so raw wall times of identical work
// do not repeat.
// Every timing therefore goes through a Meter: work is timed in short
// units, the benchmark-owned probe (probe.hpp) runs on the same thread
// between units, and each unit is rescaled to nominal host speed:
//
//   normalized = raw * (P_nominal / P)^k,  P = mean(probe before, after)
//
// k is the series' elasticity.  k = 1 is the plain ratio; the program
// slows down more than the probe when the host is busy, so calibration.json
// gives each end-to-end timing the k fitted over runs in the host's busy
// and quiet phases.  Raw times stay available next to the normalized ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double nowS();

/// Which probe part(s) scale a workload's units.
enum class ProbePart { kFp, kInt, kBoth };
ProbePart parseProbePart(const std::string& name);
const char* probePartName(ProbePart part);

struct ProbeNominal {
  double fpS = 0.0;
  double intS = 0.0;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

class Meter {
 public:
  /// `cadenceS`: probe once at least this much unit time has accumulated
  /// since the last probe (long units are probed after every unit).
  /// `elasticity`: the exponent k of every series without one of its own.
  Meter(ProbePart part, ProbeNominal nominal, double cadenceS,
        double elasticity = 1.0);

  /// Give `series` its own exponent k.
  void setElasticity(const std::string& series, double k);

  /// Record one unit's raw duration under `series`; it is normalized when
  /// the next probe closes its group.
  void add(const std::string& series, double rawS);
  /// Probe if the open group has reached the cadence.  Call only between
  /// units, never while one is running.
  void maybeProbe();
  /// Probe now and close the open group.
  void probe();

  /// Normalized by the configured probe part.
  std::vector<double> normalized(const std::string& series) const;
  std::vector<double> raw(const std::string& series) const;
  double sumNormalized(const std::string& series) const;
  double sumRaw(const std::string& series) const;

  size_t probes() const { return probeFp_.size(); }
  double medianProbeFpS() const { return median(probeFp_); }
  double medianProbeIntS() const { return median(probeInt_); }
  double probeTimeS() const { return probeTimeS_; }
  /// Probes during which the process used more CPU than the probing
  /// thread: another thread was busy, so the yardstick is not trusted.
  size_t cpuViolations() const { return cpuViolations_; }
  /// Drop every recorded unit and probe (after a warm-up).
  void reset();

 private:
  struct Pending {
    std::string series;
    double rawS;
  };
  /// A closed unit: raw time plus the mean of the probes around it.
  struct Sample {
    double rawS;
    double fpRefS;
    double intRefS;
  };

  ProbePart part_;
  ProbeNominal nominal_;
  double cadenceS_;
  double elasticity_;
  std::map<std::string, double> seriesElasticity_;
  double lastFpS_ = 0.0;  // 0 = no probe yet
  double lastIntS_ = 0.0;
  double openS_ = 0.0;
  std::vector<Pending> open_;
  std::map<std::string, std::vector<Sample>> samples_;
  std::vector<double> probeFp_;
  std::vector<double> probeInt_;
  double probeTimeS_ = 0.0;
  size_t cpuViolations_ = 0;
};

/// In-memory spans around public calls, for the traced run.  Spans carry
/// name, start, end, parent and unit id; each closed span also feeds the
/// meter under its name, so stage timings are normalized like end-to-end
/// ones.  Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  Tracer(bool enabled, Meter& meter) : enabled_(enabled), meter_(meter) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  void setUnit(int unit) { unit_ = unit; }

  /// Write every span as one JSON line, then one summary line per span
  /// name with its count, total and self time.
  bool write(const std::string& path) const;

 private:
  /// Per span name: count, total and self time (duration minus the time
  /// covered by direct children), raw seconds.
  struct Totals {
    uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  struct Span {
    const char* name;
    double startS;
    double endS;
    int parent;
    int unit;
  };
  bool enabled_;
  Meter& meter_;
  std::vector<Span> spans_;
  int open_ = -1;
  int unit_ = 0;
};

/// Named metric values with units, printed as the benchmark's JSON.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string metricsJson(const Metrics& metrics);

/// Peak resident set of this process, MB.
double peakRssMb();

}  // namespace perfbench
