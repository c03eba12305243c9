// Exporters: turn a MetricsSnapshot (plus optionally the event journal)
// into the two formats a deployment actually scrapes --
//  * a Prometheus text-format page (counters, gauges, and histograms as
//    summaries with p50/p90/p99 quantiles), every metric prefixed
//    "tagspin_" with dots mapped to underscores;
//  * a JSON snapshot (stable key order) for dashboards, CI trending and
//    the sidecar files written next to checkpoints.
#pragma once

#include <string>

#include "core/io_env.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace tagspin::obs {

/// `s` as the body of a JSON string literal: quote, backslash, newline and
/// tab get their short escapes, any other control character \u00XX.
std::string jsonEscape(const std::string& s);

/// "session.disconnects" -> "tagspin_session_disconnects"; any character
/// outside [a-zA-Z0-9_] becomes '_'.
std::string prometheusName(const std::string& name);

std::string toPrometheus(const MetricsSnapshot& snapshot);

/// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// plus, when a journal is given, {"events": [...], "events_dropped": N}.
std::string toJson(const MetricsSnapshot& snapshot,
                   const EventJournal* journal = nullptr);

/// Best-effort text write (used for metric sidecars next to checkpoints and
/// the CLI's periodic dumps).  Returns false instead of throwing: telemetry
/// export must never take down ingestion.  Atomic and durable (tmp + fsync +
/// rename + parent dirsync, see core::writeFileDurable): a crash mid-export
/// leaves the previous sidecar, never torn JSON.  `io` selects the storage
/// environment; nullptr means the real filesystem.
bool writeTextFile(const std::string& path, const std::string& contents,
                   core::IoEnv* io = nullptr);

}  // namespace tagspin::obs
