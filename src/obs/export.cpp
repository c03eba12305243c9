#include "obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

namespace tagspin::obs {

namespace {

/// %.9g prints doubles compactly without losing latency resolution.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prometheusName(const std::string& name) {
  std::string out = "tagspin_";
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string toPrometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string p = prometheusName(name);
    out << "# TYPE " << p << " counter\n";
    out << p << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = prometheusName(name);
    out << "# TYPE " << p << " gauge\n";
    out << p << ' ' << num(value) << '\n';
  }
  for (const HistogramView& h : snapshot.histograms) {
    const std::string p = prometheusName(h.name);
    out << "# TYPE " << p << " summary\n";
    out << p << "{quantile=\"0.5\"} " << num(h.p50) << '\n';
    out << p << "{quantile=\"0.9\"} " << num(h.p90) << '\n';
    out << p << "{quantile=\"0.99\"} " << num(h.p99) << '\n';
    out << p << "_sum " << num(h.sum) << '\n';
    out << p << "_count " << h.count << '\n';
  }
  return out.str();
}

std::string toJson(const MetricsSnapshot& snapshot,
                   const EventJournal* journal) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i ? ", " : "") << '"' << jsonEscape(snapshot.counters[i].first)
        << "\": " << snapshot.counters[i].second;
  }
  out << "},\n  \"gauges\": {";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i ? ", " : "") << '"' << jsonEscape(snapshot.gauges[i].first)
        << "\": " << num(snapshot.gauges[i].second);
  }
  out << "},\n  \"histograms\": {\n";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramView& h = snapshot.histograms[i];
    out << "    \"" << jsonEscape(h.name) << "\": {\"count\": " << h.count
        << ", \"sum\": " << num(h.sum) << ", \"min\": " << num(h.min)
        << ", \"max\": " << num(h.max) << ", \"p50\": " << num(h.p50)
        << ", \"p90\": " << num(h.p90) << ", \"p99\": " << num(h.p99) << '}'
        << (i + 1 < snapshot.histograms.size() ? "," : "") << '\n';
  }
  out << "  }";
  if (journal) {
    out << ",\n  \"events_dropped\": " << journal->dropped();
    out << ",\n  \"events\": [\n";
    const std::vector<Event> events = journal->events();
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& ev = events[i];
      out << "    {\"t\": " << num(ev.wallS) << ", \"severity\": \""
          << severityName(ev.severity) << "\", \"what\": \""
          << jsonEscape(ev.what) << '"';
      for (const auto& [key, value] : ev.fields) {
        out << ", \"" << jsonEscape(key) << "\": \"" << jsonEscape(value)
            << '"';
      }
      out << '}' << (i + 1 < events.size() ? "," : "") << '\n';
    }
    out << "  ]";
  }
  out << "\n}\n";
  return out.str();
}

bool writeTextFile(const std::string& path, const std::string& contents,
                   core::IoEnv* io) {
  // Truncate-in-place would leave torn JSON if the process (or the power)
  // dies mid-write; scrapers and CI trenders read these files while the
  // system runs, so they get the same old-or-new contract as checkpoints.
  return core::writeFileDurableNoThrow(core::resolveIo(io), path, contents);
}

}  // namespace tagspin::obs
