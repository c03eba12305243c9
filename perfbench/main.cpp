// perfbench_runner: runs one benchmark workload in this process, on this
// thread, and prints a detail line followed by the result line:
//
//   perfbench_runner --workload survey|fleet|ingest --seed N --seconds S
//                    --trace 0|1 --probe-part fp|int|both
//                    --probe-nominal-fp SEC --probe-nominal-int SEC
//                    [--elasticity METRIC=K]... [--spans PATH]
//   perfbench_runner --calibrate-probe SECONDS
//
// perfbench/run.py builds this binary and supplies the probe constants.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

void reportTiming(const Meter& meter, const std::string& series,
                  const std::string& metric, const char* unit, double scale,
                  bool mean, RunResult& result) {
  const auto reduce = [mean, scale](const std::vector<double>& v) {
    if (!mean) return scale * median(v);
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : scale * sum / double(v.size());
  };
  result.metrics[metric] = {reduce(meter.normalized(series)), unit};
  result.detail["host.raw." + metric] = {reduce(meter.raw(series)), unit};
  result.detail["host.samples." + metric] = {double(meter.raw(series).size()),
                                             "count"};
}

void addHostMetrics(const Meter& meter, double wallS, bool traced,
                    RunResult& result) {
  Metrics& target = traced ? result.metrics : result.detail;
  target["host.probe_fp_ms"] = {1e3 * meter.medianProbeFpS(), "ms"};
  target["host.probe_int_ms"] = {1e3 * meter.medianProbeIntS(), "ms"};
  target["host.probe_share"] = {wallS > 0.0 ? meter.probeTimeS() / wallS : 0.0,
                                "fraction"};
  result.detail["host.probes"] = {double(meter.probes()), "count"};
  result.detail["host.wall_s"] = {wallS, "s"};
  if (meter.cpuViolations() > 0) {
    result.failures.push_back(
        "probe: " + std::to_string(meter.cpuViolations()) +
        " probes ran while another thread of the process was busy");
  }
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload survey|fleet|ingest "
               "--seed N --seconds S --trace 0|1 --probe-part fp|int|both "
               "--probe-nominal-fp SEC --probe-nominal-int SEC "
               "[--elasticity METRIC=K]... [--spans PATH]\n"
               "       perfbench_runner --calibrate-probe SECONDS\n");
  return 2;
}

// Probe readings for choosing P_nominal: median of each part over a
// window of back-to-back probes.
int calibrateProbe(double seconds) {
  using namespace perfbench;
  Meter meter(ProbePart::kBoth, {1.0, 1.0}, 0.0);
  const double end = nowS() + seconds;
  while (nowS() < end) meter.probe();
  std::printf("{\"probe_fp_s\": %.9g, \"probe_int_s\": %.9g, \"probes\": %zu}\n",
              meter.medianProbeFpS(), meter.medianProbeIntS(), meter.probes());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string workload;
  bool haveFp = false, haveInt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = value == "1";
      } else if (arg == "--probe-part") {
        config.part = parseProbePart(value);
      } else if (arg == "--probe-nominal-fp") {
        config.nominal.fpS = std::stod(value);
        haveFp = true;
      } else if (arg == "--probe-nominal-int") {
        config.nominal.intS = std::stod(value);
        haveInt = true;
      } else if (arg == "--elasticity") {
        const size_t eq = value.find('=');
        if (eq == std::string::npos) return usage();
        config.elasticity[value.substr(0, eq)] = std::stod(value.substr(eq + 1));
      } else if (arg == "--spans") {
        config.spansPath = value;
      } else if (arg == "--calibrate-probe") {
        return calibrateProbe(std::stod(value));
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!haveFp || !haveInt || config.seconds <= 0.0) return usage();

  RunResult result;
  try {
    if (workload == "survey") {
      result = runSurvey(config);
    } else if (workload == "fleet") {
      result = runFleet(config);
    } else if (workload == "ingest") {
      result = runIngest(config);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload threw: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::string failures = "[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 result.failures[i].c_str());
    failures += (i ? ", \"" : "\"") + result.failures[i] + "\"";
  }
  failures += "]";
  const bool correct = result.failures.empty();
  std::printf("{\"detail\": %s, \"probe_part\": \"%s\", \"failures\": %s}\n",
              metricsJson(result.detail).c_str(), probePartName(config.part),
              failures.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metricsJson(result.metrics).c_str());
  return correct ? 0 : 1;
}
