#include "eval/report.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace tagspin::eval {

std::string outputPath(const std::string& dir, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (std::filesystem::path(dir) / name).string();
}

void printHeading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void printSubheading(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

void printSummaryHeader() {
  std::printf("%-34s %8s %8s %8s %8s %8s %8s %6s\n", "system", "mean", "std",
              "median", "p90", "min", "max", "n");
}

void printSummaryRow(const std::string& name, const dsp::Summary& s) {
  std::printf("%-34s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %6zu\n", name.c_str(),
              s.mean, s.stddev, s.median, s.p90, s.min, s.max, s.count);
}

void printCdf(const std::string& name, std::span<const double> values,
              int points) {
  if (values.empty()) {
    std::printf("%s: (no data)\n", name.c_str());
    return;
  }
  const dsp::Ecdf cdf = dsp::makeEcdf(values);
  std::printf("%s CDF:\n", name.c_str());
  for (int i = 1; i <= points; ++i) {
    const double p = static_cast<double>(i) / points;
    std::printf("  P%3.0f <= %7.2f cm\n", p * 100.0, cdf.quantile(p));
  }
}

void printErrorBreakdown(const std::string& name,
                         std::span<const ErrorCm> errors) {
  printSubheading(name);
  printSummaryHeader();
  printSummaryRow("x-axis", dsp::summarize(xErrors(errors)));
  printSummaryRow("y-axis", dsp::summarize(yErrors(errors)));
  const auto z = zErrors(errors);
  if (std::any_of(z.begin(), z.end(), [](double v) { return v != 0.0; })) {
    printSummaryRow("z-axis", dsp::summarize(z));
  }
  printSummaryRow("combined", dsp::summarize(combinedErrors(errors)));
}

void printSeries(const std::string& xLabel, const std::string& yLabel,
                 std::span<const std::pair<double, double>> series) {
  std::printf("%12s %12s\n", xLabel.c_str(), yLabel.c_str());
  for (const auto& [x, y] : series) {
    std::printf("%12.3f %12.3f\n", x, y);
  }
}

void printProfileAscii(const std::string& name,
                       std::span<const double> profile, int rows) {
  if (profile.empty()) return;
  const double maxV = *std::max_element(profile.begin(), profile.end());
  const double minV = *std::min_element(profile.begin(), profile.end());
  const double span = std::max(maxV - minV, 1e-12);
  const int cols = 72;
  std::printf("%s  (max %.3f at %zu deg-bin of %zu)\n", name.c_str(), maxV,
              static_cast<size_t>(std::max_element(profile.begin(),
                                                   profile.end()) -
                                  profile.begin()),
              profile.size());
  for (int r = rows - 1; r >= 0; --r) {
    const double level = minV + span * (r + 0.5) / rows;
    std::fputs("  |", stdout);
    for (int c = 0; c < cols; ++c) {
      const size_t idx = static_cast<size_t>(
          static_cast<double>(c) * static_cast<double>(profile.size()) / cols);
      std::fputc(profile[idx] >= level ? '#' : ' ', stdout);
    }
    std::fputs("|\n", stdout);
  }
  std::printf("   0%*s360 deg\n", 68, "");
}

}  // namespace tagspin::eval
