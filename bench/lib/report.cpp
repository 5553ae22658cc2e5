#include "lib/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/error.hpp"
#include "obs/export.hpp"
#include "patterns/pattern.hpp"

namespace artsparse {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  detail::require(cells.size() == headers_.size(),
                  "table row width does not match header");
  rows_.push_back(std::move(cells));
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
        c != '-' && c != '+' && c != 'e' && c != '%' && c != ' ') {
      return false;
    }
  }
  return true;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      out << "| ";
      if (looks_numeric(row[c])) {
        out << std::string(pad, ' ') << row[c];
      } else {
        out << row[c] << std::string(pad, ' ');
      }
      out << ' ';
    }
    out << "|\n";
  };

  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << '|' << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void TextTable::write_csv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open CSV output: " + path.string());
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) {
    emit(row);
  }
}

std::string bar_chart(const std::string& title,
                      const std::vector<std::string>& row_labels,
                      const std::vector<std::string>& series_labels,
                      const std::vector<std::vector<double>>& values,
                      std::size_t width, bool log_scale) {
  detail::require(values.size() == row_labels.size(),
                  "bar chart row count mismatch");
  detail::require(width >= 4, "bar chart width too small");

  // Global maximum sets the scale; log mode maps [min_positive, max] onto
  // [1 char, width].
  double max_value = 0.0;
  double min_positive = std::numeric_limits<double>::max();
  for (const auto& row : values) {
    detail::require(row.size() == series_labels.size(),
                    "bar chart series count mismatch");
    for (double v : row) {
      detail::require(v >= 0.0, "bar chart values must be non-negative");
      max_value = std::max(max_value, v);
      if (v > 0.0) min_positive = std::min(min_positive, v);
    }
  }

  std::size_t label_width = 0;
  for (const auto& s : series_labels) {
    label_width = std::max(label_width, s.size());
  }

  auto bar_length = [&](double v) -> std::size_t {
    if (v <= 0.0 || max_value <= 0.0) return 0;
    double fraction;
    if (log_scale && max_value > min_positive) {
      fraction = std::log(v / min_positive) /
                 std::log(max_value / min_positive);
      fraction = std::max(fraction, 0.0);
      // Smallest positive value still shows one tick.
      return 1 + static_cast<std::size_t>(fraction *
                                          static_cast<double>(width - 1));
    }
    fraction = v / max_value;
    return std::max<std::size_t>(1, static_cast<std::size_t>(
                                        fraction * static_cast<double>(width)));
  };

  std::ostringstream out;
  out << title;
  if (log_scale) out << "  (log scale)";
  out << '\n';
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    out << row_labels[r] << '\n';
    for (std::size_t s = 0; s < series_labels.size(); ++s) {
      const double v = values[r][s];
      const std::size_t len = bar_length(v);
      out << "  " << series_labels[s]
          << std::string(label_width - series_labels[s].size(), ' ')
          << " |" << std::string(len, '#')
          << std::string(width - std::min(width, len), ' ') << "| ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4g", v);
      out << buf << '\n';
    }
  }
  return out.str();
}

std::string format_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", seconds);
  return buf;
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", fraction * 100.0);
  return buf;
}

std::string format_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

namespace {

/// Shortest float form that round-trips well enough for reports.
std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

std::string measurements_to_json(const std::vector<Measurement>& grid) {
  std::ostringstream out;
  out << "{\n  \"measurements\": [";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Measurement& m = grid[i];
    if (i != 0) out << ',';
    out << "\n    {";
    out << "\"workload\": \"" << obs::json_escape(m.workload) << "\", ";
    out << "\"rank\": " << m.rank << ", ";
    out << "\"pattern\": \"" << obs::json_escape(to_string(m.pattern))
        << "\", ";
    out << "\"org\": \"" << obs::json_escape(to_string(m.org)) << "\", ";
    out << "\"points\": " << m.point_count << ", ";
    out << "\"queries\": " << m.query_count << ", ";
    out << "\"found\": " << m.found_count << ", ";
    out << "\"file_bytes\": " << m.file_bytes << ", ";
    out << "\"index_bytes\": " << m.index_bytes << ", ";
    out << "\"verified\": " << (m.verified ? "true" : "false") << ",\n";
    out << "     \"write\": {"
        << "\"build_sec\": " << json_number(m.write_times.build) << ", "
        << "\"build_sort_sec\": " << json_number(m.write_times.build_sort)
        << ", "
        << "\"reorg_sec\": " << json_number(m.write_times.reorg) << ", "
        << "\"others_sec\": " << json_number(m.write_times.others) << ", "
        << "\"write_sec\": " << json_number(m.write_times.write) << ", "
        << "\"total_sec\": " << json_number(m.write_times.total()) << ", "
        << "\"io_attempts\": " << m.write_times.io_attempts << ", "
        << "\"io_retries\": " << m.write_times.io_retries << ", "
        << "\"backoff_sec\": " << json_number(m.write_times.backoff)
        << "},\n";
    out << "     \"read\": {"
        << "\"discover_sec\": " << json_number(m.read_times.discover) << ", "
        << "\"extract_sec\": " << json_number(m.read_times.extract) << ", "
        << "\"query_sec\": " << json_number(m.read_times.query) << ", "
        << "\"merge_sec\": " << json_number(m.read_times.merge) << ", "
        << "\"total_sec\": " << json_number(m.read_times.total()) << ", "
        << "\"cache_hits\": " << m.read_times.cache_hits << ", "
        << "\"cache_misses\": " << m.read_times.cache_misses << "},\n";
    out << "     \"cache\": {"
        << "\"hits\": " << m.cache.hits << ", "
        << "\"misses\": " << m.cache.misses << ", "
        << "\"evictions\": " << m.cache.evictions << ", "
        << "\"invalidations\": " << m.cache.invalidations << ", "
        << "\"open_count\": " << m.cache.open_count << ", "
        << "\"open_bytes\": " << m.cache.open_bytes << ", "
        << "\"budget_bytes\": " << m.cache.budget_bytes << "}}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

void write_json_report(const std::filesystem::path& path,
                       const std::vector<Measurement>& grid) {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open JSON output: " + path.string());
  }
  out << measurements_to_json(grid);
}

}  // namespace artsparse
