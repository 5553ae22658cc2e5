#include "lib/scoring.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

Measurement fake(const std::string& workload, OrgKind org, double write,
                 double read, std::size_t bytes) {
  Measurement m;
  m.workload = workload;
  m.org = org;
  m.write_times.build = write;
  m.read_times.query = read;
  m.file_bytes = bytes;
  return m;
}

TEST(Scoring, MetricValueExtraction) {
  const Measurement m = fake("w", OrgKind::kCoo, 2.0, 3.0, 400);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kWriteTime), 2.0);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kReadTime), 3.0);
  EXPECT_DOUBLE_EQ(metric_value(m, Metric::kFileSize), 400.0);
}

TEST(Scoring, WorstOrganizationScoresOne) {
  // One cell where COO is worst on every metric: its normalized value is
  // 1.0 on all three.
  const std::vector<Measurement> grid{
      fake("cell", OrgKind::kCoo, 4.0, 10.0, 800),
      fake("cell", OrgKind::kLinear, 1.0, 5.0, 200),
  };
  const ScoreTable table = compute_scores(grid);
  EXPECT_DOUBLE_EQ(table.overall.at(OrgKind::kCoo), 1.0);
  // LINEAR: (0.25 + 0.5 + 0.25) / 3.
  EXPECT_NEAR(table.overall.at(OrgKind::kLinear), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(table.best(), OrgKind::kLinear);
}

TEST(Scoring, AveragesAcrossCells) {
  const std::vector<Measurement> grid{
      fake("a", OrgKind::kCoo, 2.0, 2.0, 2),
      fake("a", OrgKind::kCsf, 1.0, 1.0, 1),
      fake("b", OrgKind::kCoo, 1.0, 1.0, 1),
      fake("b", OrgKind::kCsf, 2.0, 2.0, 2),
  };
  const ScoreTable table = compute_scores(grid);
  // Symmetric: both average (1.0 + 0.5) / 2 = 0.75 per metric.
  EXPECT_NEAR(table.overall.at(OrgKind::kCoo), 0.75, 1e-12);
  EXPECT_NEAR(table.overall.at(OrgKind::kCsf), 0.75, 1e-12);
}

TEST(Scoring, PerMetricBreakdownExposed) {
  const std::vector<Measurement> grid{
      fake("a", OrgKind::kCoo, 4.0, 1.0, 100),
      fake("a", OrgKind::kLinear, 1.0, 1.0, 100),
  };
  const ScoreTable table = compute_scores(grid);
  EXPECT_DOUBLE_EQ(table.per_metric.at(Metric::kWriteTime).at(OrgKind::kLinear),
                   0.25);
  EXPECT_DOUBLE_EQ(table.per_metric.at(Metric::kReadTime).at(OrgKind::kCoo),
                   1.0);
}

TEST(Scoring, DegenerateAllZeroCellSkipped) {
  const std::vector<Measurement> grid{
      fake("a", OrgKind::kCoo, 0.0, 0.0, 0),
      fake("a", OrgKind::kLinear, 0.0, 0.0, 0),
      fake("b", OrgKind::kCoo, 2.0, 2.0, 2),
      fake("b", OrgKind::kLinear, 1.0, 1.0, 1),
  };
  const ScoreTable table = compute_scores(grid);
  EXPECT_DOUBLE_EQ(table.overall.at(OrgKind::kCoo), 1.0);
  EXPECT_DOUBLE_EQ(table.overall.at(OrgKind::kLinear), 0.5);
}

TEST(Scoring, EmptyInputRejected) {
  EXPECT_THROW(compute_scores({}), FormatError);
}

TEST(Scoring, ScoresLieInUnitInterval) {
  const std::vector<Measurement> grid{
      fake("a", OrgKind::kCoo, 5.0, 1.0, 10),
      fake("a", OrgKind::kGcsr, 2.0, 7.0, 30),
      fake("a", OrgKind::kCsf, 3.0, 2.0, 50),
  };
  const ScoreTable table = compute_scores(grid);
  for (const auto& [org, score] : table.overall) {
    EXPECT_GT(score, 0.0) << to_string(org);
    EXPECT_LE(score, 1.0) << to_string(org);
  }
}

TEST(Scoring, MetricNames) {
  EXPECT_EQ(to_string(Metric::kWriteTime), "write-time");
  EXPECT_EQ(to_string(Metric::kReadTime), "read-time");
  EXPECT_EQ(to_string(Metric::kFileSize), "file-size");
}

TEST(Integration, ScoresFromRealGridFavorCompactFormats) {
  // Tiny grid end-to-end through harness + scoring: COO must not win.
  const std::filesystem::path dir = testing::fresh_temp_dir("integration");
  Workload w;
  w.name = "it-2D-GSP";
  w.shape = Shape{64, 64};
  w.pattern = PatternKind::kGsp;
  w.spec = GspConfig{0.05};
  w.seed = 2;

  HarnessOptions options;
  options.work_dir = dir;
  options.device = DeviceModel::unthrottled();
  const auto measurements = run_grid(
      {w}, std::vector<OrgKind>(kPaperOrgs, kPaperOrgs + 5), options);
  const ScoreTable scores = compute_scores(measurements);
  EXPECT_NE(scores.best(), OrgKind::kCoo);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace artsparse
