// Plain-text reporting shared by the bench binaries: headed sections,
// summary tables, CDF listings and ASCII plots of profiles/series, so every
// figure and table of the paper has a directly readable counterpart.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsp/stats.hpp"
#include "eval/metrics.hpp"

namespace tagspin::eval {

void printHeading(const std::string& title);
void printSubheading(const std::string& title);

/// "name  mean  std  median  p90  min  max  n" row (values in cm).
void printSummaryRow(const std::string& name, const dsp::Summary& s);
void printSummaryHeader();

/// Print a CDF as rows "value_cm  P(err <= value)" at `points` quantiles.
void printCdf(const std::string& name, std::span<const double> values,
              int points = 10);

/// Per-axis + combined summary of a batch of errors (the Fig. 10 layout).
void printErrorBreakdown(const std::string& name,
                         std::span<const ErrorCm> errors);

/// x/y series as aligned columns.
void printSeries(const std::string& xLabel, const std::string& yLabel,
                 std::span<const std::pair<double, double>> series);

/// ASCII rendering of a profile sampled on [0, 360) degrees -- the textual
/// stand-in for the paper's polar plots (Fig. 1, 6).
void printProfileAscii(const std::string& name,
                       std::span<const double> profile, int rows = 12);

/// dir + "/" + name with the directory created; the one place bench file
/// paths are assembled.
std::string outputPath(const std::string& dir, const std::string& name);

}  // namespace tagspin::eval
