#include "patterns/calibrate.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "patterns/dataset.hpp"
#include "patterns/workload.hpp"

namespace artsparse {
namespace {

double measured_density(const Shape& shape, const PatternSpec& spec) {
  return make_dataset(shape, spec, /*seed=*/99).density();
}

TEST(CalibrateTsp, ReachesTargetDensity) {
  const Shape shape{256, 256};
  const double target = 0.0167;  // Table II, 2-D TSP
  const TspConfig config = calibrate_tsp(shape, target);
  const double density = measured_density(shape, config);
  EXPECT_GE(density, target);
  // Smallest sufficient width: one step narrower must fall short.
  if (config.half_width > 0) {
    EXPECT_LT(measured_density(shape, TspConfig{config.half_width - 1}),
              target);
  }
}

TEST(CalibrateTsp, HigherTargetWidensBand) {
  const Shape shape{128, 128};
  EXPECT_GT(calibrate_tsp(shape, 0.10).half_width,
            calibrate_tsp(shape, 0.01).half_width);
}

TEST(CalibrateTsp, ImpossibleTargetReturnsWidestBand) {
  const Shape shape{8, 8};
  const TspConfig config = calibrate_tsp(shape, 1.0);
  EXPECT_EQ(config.half_width, 7u);
}

TEST(CalibrateTsp, ClosedFormCountMatchesGeneratedBand) {
  // Unequal extents, so top_i = min(a + w, m_i - 1) clips at different
  // widths in different dimensions.
  Xoshiro256 rng(2024);
  for (std::size_t rank = 1; rank <= 5; ++rank) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<index_t> extents(rank);
      for (index_t& extent : extents) {
        extent = 1 + rng.next_below(rank <= 2 ? 40 : rank == 3 ? 16 : 8);
      }
      const Shape shape(extents);
      SCOPED_TRACE(shape.to_string());
      for (index_t w = 0; w < shape.min_extent(); ++w) {
        EXPECT_EQ(tsp_cell_count(shape, w),
                  generate_tsp(shape, TspConfig{w}).size())
            << "half_width " << w;
      }
    }
  }
}

TEST(CalibrateTsp, WidthPastEveryExtentCountsWholeTensor) {
  const Shape shape{5, 9, 3};
  EXPECT_EQ(tsp_cell_count(shape, 8), shape.element_count());
  EXPECT_EQ(tsp_cell_count(shape, ~index_t{0}), shape.element_count());
}

TEST(CalibrateTsp, PaperGridHalfWidthsArePinned) {
  // The Table II TSP workloads: 2-D/3-D/4-D at small and paper scale.
  // Counting in closed form makes the paper-scale search cheap enough
  // for a unit test.
  const struct {
    ScaleKind scale;
    std::size_t rank;
    index_t half_width;
  } cases[] = {
      {ScaleKind::kSmall, 2, 9},  {ScaleKind::kSmall, 3, 14},
      {ScaleKind::kSmall, 4, 14}, {ScaleKind::kPaper, 2, 69},
      {ScaleKind::kPaper, 3, 57}, {ScaleKind::kPaper, 4, 38},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.rank) + "-D" +
                 (c.scale == ScaleKind::kPaper ? " paper" : " small"));
    const TspConfig config = calibrate_tsp(
        grid_shape(c.rank, c.scale), table2_density(c.rank, PatternKind::kTsp));
    EXPECT_EQ(config.half_width, c.half_width);
  }
}

TEST(CalibrateTsp, InvalidTargetRejected) {
  EXPECT_THROW(calibrate_tsp(Shape{8, 8}, 0.0), FormatError);
  EXPECT_THROW(calibrate_tsp(Shape{8, 8}, 1.5), FormatError);
}

TEST(CalibrateGsp, ProbabilityEqualsTarget) {
  EXPECT_DOUBLE_EQ(calibrate_gsp(0.0099).fill_probability, 0.0099);
}

TEST(CalibrateGsp, MeasuredDensityNearTarget) {
  const Shape shape{512, 512};
  const GspConfig config = calibrate_gsp(0.0099);
  EXPECT_NEAR(measured_density(shape, config), 0.0099, 0.001);
}

TEST(CalibrateMsp, MeasuredDensityNearTarget) {
  const Shape shape{512, 512};
  const double target = 0.0019;  // Table II, 2-D MSP
  const MspConfig config = calibrate_msp(shape, target);
  EXPECT_NEAR(measured_density(shape, config), target, 0.0005);
  EXPECT_DOUBLE_EQ(config.background_probability, 0.001);
}

TEST(CalibrateMsp, RegionFillSolvesClosedForm) {
  const Shape shape{90, 90};
  const Box region = msp_region(shape);
  const double f = static_cast<double>(region.cell_count()) /
                   static_cast<double>(shape.element_count());
  const double target = 0.01;
  const MspConfig config = calibrate_msp(shape, target, 0.001);
  EXPECT_NEAR(0.001 * (1.0 - f) + config.region_fill_probability * f,
              target, 1e-12);
}

TEST(CalibrateMsp, UnreachableTargetRejected) {
  // Region is ~1/9 of a 2-D tensor; with a 0.1% background the reachable
  // maximum is ~11.2%.
  EXPECT_THROW(calibrate_msp(Shape{90, 90}, 0.5), FormatError);
}

TEST(CalibrateMsp, TargetBelowBackgroundRejected) {
  EXPECT_THROW(calibrate_msp(Shape{90, 90}, 0.0001, 0.001), FormatError);
}

}  // namespace
}  // namespace artsparse
