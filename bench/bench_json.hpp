// Shared sidecar schema for the BENCH_*.json trajectory records.
//
// Every long-running bench (fig_soak, fig_chaos, fig_fleet, fig_replay)
// emits one machine-readable record so CI trending and the workflow
// artifacts read a single shape instead of four ad-hoc ones:
//
//   {
//     "bench":   "<name>",
//     "seed":    <u64>,
//     "pass":    <all gates true>,
//     "gates":   { "<gate>": true/false, ... },
//     "metrics": { "<metric>": <number>, ... },
//     "payload": { ...full harness JSON... }
//   }
//
// Gates are the binary acceptance criteria the binary's exit code is built
// from; metrics are the headline numbers worth trending without parsing
// the payload.  The payload embeds the harness's own JSON object verbatim
// (it must be a well-formed object; "" omits the key).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace tagspin::bench {

struct BenchRecord {
  std::string name;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::pair<std::string, double>> metrics;
  /// Full harness JSON object ("" omits the payload key).
  std::string payload;

  void gate(std::string key, bool pass) {
    gates.emplace_back(std::move(key), pass);
  }
  void metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
  }

  bool allGatesPass() const {
    for (const auto& [key, ok] : gates) {
      if (!ok) return false;
    }
    return true;
  }

  std::string toJson() const {
    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"" << name << "\",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"pass\": " << (allGatesPass() ? "true" : "false") << ",\n";
    out << "  \"gates\": {";
    for (size_t i = 0; i < gates.size(); ++i) {
      out << (i ? ", " : "") << "\"" << gates[i].first << "\": "
          << (gates[i].second ? "true" : "false");
    }
    out << "},\n";
    out << "  \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[48];
      std::snprintf(value, sizeof(value), "%.9g", metrics[i].second);
      out << (i ? ", " : "") << "\"" << metrics[i].first << "\": " << value;
    }
    out << "}";
    if (!payload.empty()) {
      // The harness payloads end with "}\n"; indent-free embedding keeps
      // this emitter dumb and the output valid.
      std::string trimmed = payload;
      while (!trimmed.empty() &&
             (trimmed.back() == '\n' || trimmed.back() == ' ')) {
        trimmed.pop_back();
      }
      out << ",\n  \"payload\": " << trimmed;
    }
    out << "\n}\n";
    return out.str();
  }
};

/// Command line of a figure bench: --seed=N, --json[=PATH], --out=DIR and
/// positional counts.
struct BenchArgs {
  uint64_t seed = 0;
  std::string sidecarPath;  // "" when --json is absent
  std::string outDir = "bench/out";  // --out=DIR; bench/out by default
  std::vector<std::string> positional;
};

/// Parse argv into `args` (seed and sidecar path start at the given
/// defaults-when-flagged).  Returns false, after saying why on stderr, for
/// an unknown "--" flag or a malformed seed; the bench then exits 2.
inline bool parseBenchArgs(int argc, char** argv, uint64_t defaultSeed,
                           const std::string& defaultSidecar,
                           BenchArgs& args) {
  args.seed = defaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      char* end = nullptr;
      args.seed = std::strtoull(arg.c_str() + 7, &end, 10);
      if (arg.size() == 7 || *end != '\0') {
        std::fprintf(stderr, "%s: bad seed '%s'\n", argv[0], arg.c_str());
        return false;
      }
    } else if (arg == "--json") {
      args.sidecarPath = defaultSidecar;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.sidecarPath = arg.substr(7);
    } else if (arg.rfind("--out=", 0) == 0) {
      args.outDir = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      return false;
    } else {
      args.positional.push_back(arg);
    }
  }
  return true;
}

/// Positional argument `index` as a count: `fallback` when absent, 0
/// (after saying why on stderr) when it is not a positive integer.
inline int positiveCount(const BenchArgs& args, size_t index, int fallback) {
  if (index >= args.positional.size()) return fallback;
  const std::string& text = args.positional[index];
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value <= 0 || value > 1000000) {
    std::fprintf(stderr, "bad count '%s': need a positive integer\n",
                 text.c_str());
    return 0;
  }
  return static_cast<int>(value);
}

/// Write the record to `path` and report it on stdout.
inline void writeBenchSidecar(const std::string& path,
                              const BenchRecord& record) {
  std::ofstream out(path);
  out << record.toJson();
  std::printf("wrote %s (pass=%s)\n", path.c_str(),
              record.allGatesPass() ? "true" : "false");
}

}  // namespace tagspin::bench
