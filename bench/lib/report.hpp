// Plain-text reporting: aligned ASCII tables (the bench binaries print the
// paper's tables/figures as rows) and CSV emission for external plotting.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "lib/harness.hpp"

namespace artsparse {

/// Column-aligned ASCII table builder.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule; numeric-looking cells right-aligned.
  std::string str() const;

  /// Writes the same content as CSV.
  void write_csv(const std::filesystem::path& path) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Grouped horizontal ASCII bar chart — the textual rendering of the
/// paper's figures. One block of bars per row label, one bar per series;
/// bars are scaled to the global maximum (or its log when `log_scale`,
/// which suits Fig. 5's orders-of-magnitude spreads). Values must be
/// non-negative; `values[row][series]`.
std::string bar_chart(const std::string& title,
                      const std::vector<std::string>& row_labels,
                      const std::vector<std::string>& series_labels,
                      const std::vector<std::vector<double>>& values,
                      std::size_t width = 48, bool log_scale = false);

/// "0.1234" style seconds with 4 decimals (matching Table III's precision).
std::string format_seconds(double seconds);

/// "1.67%" style percentage with two decimals.
std::string format_percent(double fraction);

/// Fixed-decimal double ("0.34").
std::string format_fixed(double value, int decimals);

/// Serializes a measurement grid as a JSON document:
/// {"measurements": [{workload, org, write: {..., io_attempts, io_retries,
/// backoff_sec}, read: {...}, cache: {...}, ...}]}. Every quantity the CSV
/// emits plus the retry/backoff and cache counters, machine-readable.
std::string measurements_to_json(const std::vector<Measurement>& grid);

/// Writes measurements_to_json() to `path`.
void write_json_report(const std::filesystem::path& path,
                       const std::vector<Measurement>& grid);

}  // namespace artsparse
