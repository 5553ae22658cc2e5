#include "patterns/workload.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"

namespace artsparse {
namespace {

TEST(Workload, GridShapesMatchPaper) {
  EXPECT_EQ(grid_shape(2, ScaleKind::kPaper), Shape::uniform(2, 8192));
  EXPECT_EQ(grid_shape(3, ScaleKind::kPaper), Shape::uniform(3, 512));
  EXPECT_EQ(grid_shape(4, ScaleKind::kPaper), Shape::uniform(4, 128));
}

TEST(Workload, SmallShapesAreLaptopSized) {
  for (std::size_t rank : {2u, 3u, 4u}) {
    EXPECT_LT(grid_shape(rank, ScaleKind::kSmall).element_count(),
              grid_shape(rank, ScaleKind::kPaper).element_count());
  }
}

TEST(Workload, UnsupportedRankRejected) {
  EXPECT_THROW(grid_shape(1, ScaleKind::kSmall), FormatError);
  EXPECT_THROW(grid_shape(5, ScaleKind::kSmall), FormatError);
}

TEST(Workload, Table2Densities) {
  EXPECT_DOUBLE_EQ(table2_density(2, PatternKind::kTsp), 0.0167);
  EXPECT_DOUBLE_EQ(table2_density(3, PatternKind::kTsp), 0.0347);
  EXPECT_DOUBLE_EQ(table2_density(4, PatternKind::kTsp), 0.0822);
  EXPECT_DOUBLE_EQ(table2_density(4, PatternKind::kGsp), 0.0090);
  EXPECT_DOUBLE_EQ(table2_density(2, PatternKind::kMsp), 0.0019);
}

TEST(Workload, ReadRegionMatchesPaperRule) {
  const Workload w = make_workload(2, PatternKind::kGsp, ScaleKind::kSmall);
  const Box region = w.read_region();
  // origin (m/2), size (m/10) on a 1024^2 tensor.
  EXPECT_EQ(region.lo(0), 512u);
  EXPECT_EQ(region.hi(0), 512u + 102u - 1u);
}

TEST(Workload, GeneratedDensityTracksTable2) {
  for (PatternKind pattern :
       {PatternKind::kTsp, PatternKind::kGsp, PatternKind::kMsp}) {
    const Workload w = make_workload(2, pattern, ScaleKind::kSmall);
    const SparseDataset dataset = make_dataset(w.shape, w.spec, w.seed);
    const double target = table2_density(2, pattern);
    EXPECT_NEAR(dataset.density(), target, target * 0.5)
        << to_string(pattern);
  }
}

TEST(Workload, PaperGridHasNineCells) {
  const auto grid = paper_grid(ScaleKind::kSmall);
  EXPECT_EQ(grid.size(), 9u);
  // Names unique.
  std::set<std::string> names;
  for (const auto& w : grid) names.insert(w.name);
  EXPECT_EQ(names.size(), 9u);
}

TEST(Workload, NamesEncodeRankAndPattern) {
  const Workload w = make_workload(3, PatternKind::kMsp, ScaleKind::kSmall);
  EXPECT_EQ(w.name, "3D-MSP");
}

}  // namespace
}  // namespace artsparse
