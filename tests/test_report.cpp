#include "lib/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "core/error.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

TEST(Report, TableRendersHeaderAndRows) {
  TextTable table({"Org", "Time"});
  table.add_row({"COO", "0.1393"});
  table.add_row({"LINEAR", "0.0780"});
  const std::string s = table.str();
  EXPECT_NE(s.find("Org"), std::string::npos);
  EXPECT_NE(s.find("LINEAR"), std::string::npos);
  EXPECT_NE(s.find("0.1393"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Report, ColumnsAligned) {
  TextTable table({"A", "B"});
  table.add_row({"short", "1"});
  table.add_row({"a-much-longer-cell", "2"});
  const std::string s = table.str();
  // Every line has the same width.
  std::size_t width = std::string::npos;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find('\n', start);
    const std::size_t len = end - start;
    if (width == std::string::npos) width = len;
    EXPECT_EQ(len, width);
    start = end + 1;
  }
}

TEST(Report, RowWidthMismatchRejected) {
  TextTable table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), FormatError);
}

TEST(Report, CsvRoundTrip) {
  const auto dir = testing::fresh_temp_dir("report");
  const auto path = dir / "out.csv";
  TextTable table({"name", "value"});
  table.add_row({"plain", "1"});
  table.add_row({"with,comma", "2"});
  table.add_row({"with\"quote", "3"});
  table.write_csv(path);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3");
  std::filesystem::remove_all(dir);
}

TEST(Report, BarChartRendersRowsAndSeries) {
  const std::string chart =
      bar_chart("Demo", {"row-a", "row-b"}, {"X", "YY"},
                {{1.0, 2.0}, {4.0, 0.5}});
  EXPECT_NE(chart.find("Demo"), std::string::npos);
  EXPECT_NE(chart.find("row-a"), std::string::npos);
  EXPECT_NE(chart.find("YY"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(Report, BarChartBarsScaleWithValues) {
  const std::string chart =
      bar_chart("T", {"r"}, {"small", "large"}, {{1.0, 10.0}}, 40);
  // The 10x value gets ~10x the ticks.
  const auto count_hashes = [&](const std::string& label) {
    const std::size_t at = chart.find(label);
    const std::size_t bar_start = chart.find('|', at);
    const std::size_t bar_end = chart.find('|', bar_start + 1);
    return std::count(chart.begin() + static_cast<std::ptrdiff_t>(bar_start),
                      chart.begin() + static_cast<std::ptrdiff_t>(bar_end),
                      '#');
  };
  EXPECT_EQ(count_hashes("large"), 40);
  EXPECT_EQ(count_hashes("small"), 4);
}

TEST(Report, BarChartLogScaleRevealsMidValues) {
  // A value 30x above the minimum of a 1000x spread: one tick on a linear
  // scale, clearly visible (~mid-width) on the log scale.
  const std::string linear_chart = bar_chart(
      "T", {"r"}, {"lo", "mid", "hi"}, {{0.001, 0.032, 1.0}}, 40, false);
  const std::string log_chart = bar_chart(
      "T", {"r"}, {"lo", "mid", "hi"}, {{0.001, 0.032, 1.0}}, 40, true);
  EXPECT_NE(log_chart.find("(log scale)"), std::string::npos);
  const auto hashes = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '#');
  };
  // linear: 1 + 1 + 40; log: 1 + ~20 + 40.
  EXPECT_GT(hashes(log_chart), hashes(linear_chart) + 10);
}

TEST(Report, BarChartZeroValuesGetNoBar) {
  const std::string chart = bar_chart("T", {"r"}, {"z"}, {{0.0}}, 20);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '#'), 0);
}

TEST(Report, BarChartShapeChecks) {
  EXPECT_THROW(bar_chart("T", {"r"}, {"a"}, {{1.0, 2.0}}), FormatError);
  EXPECT_THROW(bar_chart("T", {"r", "s"}, {"a"}, {{1.0}}), FormatError);
  EXPECT_THROW(bar_chart("T", {"r"}, {"a"}, {{-1.0}}), FormatError);
}

TEST(Report, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.0109), "0.0109");
  EXPECT_EQ(format_seconds(0.0), "0.0000");
}

TEST(Report, FormatPercent) {
  EXPECT_EQ(format_percent(0.0167), "1.67%");
  EXPECT_EQ(format_percent(1.0), "100.00%");
}

TEST(Report, FormatFixed) {
  EXPECT_EQ(format_fixed(0.34, 2), "0.34");
  EXPECT_EQ(format_fixed(1.0 / 3.0, 4), "0.3333");
}

}  // namespace
}  // namespace artsparse
