#include "lib/harness.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace artsparse {
namespace {

HarnessOptions fast_options(const std::filesystem::path& dir) {
  HarnessOptions options;
  options.work_dir = dir;
  options.device = DeviceModel::unthrottled();
  options.verify = true;
  return options;
}

class HarnessTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("harness"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Workload tiny_workload(PatternKind pattern) const {
    Workload w;
    w.name = "tiny";
    w.shape = Shape{40, 40};
    w.pattern = pattern;
    w.seed = 5;
    switch (pattern) {
      case PatternKind::kTsp:
        w.spec = TspConfig{3};
        break;
      case PatternKind::kGsp:
        w.spec = GspConfig{0.05};
        break;
      case PatternKind::kMsp:
        w.spec = MspConfig{0.02, 0.5};
        break;
    }
    return w;
  }

  std::filesystem::path dir_;
};

TEST_F(HarnessTest, EveryOrganizationVerifies) {
  const Workload w = tiny_workload(PatternKind::kGsp);
  for (OrgKind org : kPaperOrgs) {
    const Measurement m = run_workload(w, org, fast_options(dir_));
    EXPECT_TRUE(m.verified) << to_string(org);
    EXPECT_GT(m.point_count, 0u);
    EXPECT_GT(m.file_bytes, 0u);
    EXPECT_EQ(m.org, org);
  }
}

TEST_F(HarnessTest, QueryCountIsRegionCellCount) {
  const Workload w = tiny_workload(PatternKind::kGsp);
  const Measurement m = run_workload(w, OrgKind::kCoo, fast_options(dir_));
  EXPECT_EQ(m.query_count, w.read_region().cell_count());
  EXPECT_LE(m.found_count, m.query_count);
}

TEST_F(HarnessTest, WorkDirIsCleanedUp) {
  const Workload w = tiny_workload(PatternKind::kTsp);
  run_workload(w, OrgKind::kLinear, fast_options(dir_));
  // Only the (empty) base directory remains.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(HarnessTest, GridRunsAllCombinations) {
  std::vector<Workload> workloads{tiny_workload(PatternKind::kGsp),
                                  tiny_workload(PatternKind::kMsp)};
  workloads[1].name = "tiny-msp";
  const std::vector<OrgKind> orgs{OrgKind::kCoo, OrgKind::kCsf};
  std::size_t progress_calls = 0;
  const auto measurements =
      run_grid(workloads, orgs, fast_options(dir_),
               [&](const Measurement&) { ++progress_calls; });
  EXPECT_EQ(measurements.size(), 4u);
  EXPECT_EQ(progress_calls, 4u);
  for (const Measurement& m : measurements) {
    EXPECT_TRUE(m.verified);
  }
}

TEST_F(HarnessTest, CooFileIsLargestLinearSmallest) {
  // Fig. 4's headline ordering on a single workload.
  const Workload w = tiny_workload(PatternKind::kGsp);
  const auto options = fast_options(dir_);
  const Measurement coo = run_workload(w, OrgKind::kCoo, options);
  const Measurement linear = run_workload(w, OrgKind::kLinear, options);
  const Measurement gcsr = run_workload(w, OrgKind::kGcsr, options);
  EXPECT_GT(coo.file_bytes, linear.file_bytes);
  EXPECT_LE(linear.file_bytes, gcsr.file_bytes);
}

TEST_F(HarnessTest, MeasurementTimesPopulated) {
  const Workload w = tiny_workload(PatternKind::kMsp);
  const Measurement m = run_workload(w, OrgKind::kGcsc, fast_options(dir_));
  EXPECT_GT(m.write_times.total(), 0.0);
  EXPECT_GT(m.read_times.total(), 0.0);
}

TEST(Workload, ScaleFromArgs) {
  const char* argv_paper[] = {"bench", "--scale=paper"};
  const char* argv_small[] = {"bench", "--scale=small"};
  const char* argv_none[] = {"bench"};
  EXPECT_EQ(scale_from_args(2, const_cast<char**>(argv_paper)),
            ScaleKind::kPaper);
  EXPECT_EQ(scale_from_args(2, const_cast<char**>(argv_small)),
            ScaleKind::kSmall);
  EXPECT_EQ(scale_from_args(1, const_cast<char**>(argv_none)),
            ScaleKind::kSmall);
}

}  // namespace
}  // namespace artsparse
