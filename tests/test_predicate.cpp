// Predicate-pushdown reads: value-range filtering with fragment skipping
// driven by the per-fragment min/max statistics block.
#include <gtest/gtest.h>

#include "core/linearize.hpp"
#include "formats/coo.hpp"
#include "patterns/dataset.hpp"
#include "storage/fragment.hpp"
#include "storage/fragment_store.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("predicate"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST(ValueRange, MatchesAndOverlaps) {
  const ValueRange range{10.0, 20.0};
  EXPECT_TRUE(range.matches(10.0));
  EXPECT_TRUE(range.matches(20.0));
  EXPECT_FALSE(range.matches(9.999));
  EXPECT_TRUE(range.overlaps(15.0, 30.0));
  EXPECT_TRUE(range.overlaps(0.0, 10.0));
  EXPECT_FALSE(range.overlaps(21.0, 30.0));
}

TEST(ValueRange, Constructors) {
  EXPECT_TRUE(ValueRange::at_least(5.0).matches(1e300));
  EXPECT_FALSE(ValueRange::at_least(5.0).matches(4.0));
  EXPECT_TRUE(ValueRange::at_most(5.0).matches(-1e300));
  EXPECT_FALSE(ValueRange::at_most(5.0).matches(6.0));
  EXPECT_TRUE(ValueRange{}.matches(0.0));
}

TEST(FragmentStats, MinMaxRecordedInHeader) {
  FragmentInfo info;
  info.org = OrgKind::kCoo;
  info.shape = Shape{4, 4};
  CooFormat coo;
  CoordBuffer coords(2);
  coords.append({0, 0});
  coords.append({1, 1});
  coords.append({2, 2});
  coo.build(coords, info.shape);
  info.bbox = Box::bounding(coords);
  info.point_count = 3;
  const std::vector<value_t> values = {3.5, -2.0, 7.25};

  const FragmentInfo stored =
      decode_fragment_info(encode_fragment(info, coo, values));
  EXPECT_EQ(stored.value_min, -2.0);
  EXPECT_EQ(stored.value_max, 7.25);
}

TEST(FragmentStats, EmptyFragmentHasZeroStats) {
  FragmentInfo info;
  info.org = OrgKind::kCoo;
  info.shape = Shape{4, 4};
  CooFormat coo;
  coo.build(CoordBuffer(2), info.shape);
  const FragmentInfo stored =
      decode_fragment_info(encode_fragment(info, coo, {}));
  EXPECT_EQ(stored.value_min, 0.0);
  EXPECT_EQ(stored.value_max, 0.0);
}

TEST_F(PredicateTest, FiltersIndividualValues) {
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.2}, 11);
  store.write(dataset.coords, dataset.values, OrgKind::kGcsr);

  // Values equal linear addresses: keep only addresses in [100, 400].
  const ValueRange range{100.0, 400.0};
  const ReadResult result =
      store.scan_region_where(Box::whole(shape), range);
  std::size_t expected = 0;
  for (value_t v : dataset.values) {
    if (range.matches(v)) ++expected;
  }
  EXPECT_EQ(result.values.size(), expected);
  for (value_t v : result.values) {
    EXPECT_TRUE(range.matches(v));
  }
}

TEST_F(PredicateTest, SkipsFragmentsByStatistics) {
  // Two fragments with disjoint value ranges; a predicate matching only
  // one must not open the other.
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);

  CoordBuffer low(2);
  low.append({1, 1});
  low.append({2, 2});
  const std::vector<value_t> low_values{1.0, 2.0};
  store.write(low, low_values, OrgKind::kLinear);

  CoordBuffer high(2);
  high.append({3, 3});
  high.append({4, 4});
  const std::vector<value_t> high_values{1000.0, 2000.0};
  store.write(high, high_values, OrgKind::kLinear);

  const ReadResult result = store.scan_region_where(
      Box::whole(shape), ValueRange::at_least(500.0));
  EXPECT_EQ(result.fragments_visited, 1u);
  EXPECT_EQ(result.values, (std::vector<value_t>{1000.0, 2000.0}));
}

TEST_F(PredicateTest, StatisticsSurviveRescan) {
  const Shape shape{64, 64};
  {
    FragmentStore store(dir_, shape);
    CoordBuffer coords(2);
    coords.append({1, 1});
    const std::vector<value_t> values{42.0};
    store.write(coords, values, OrgKind::kCoo);
  }
  FragmentStore reopened(dir_, shape);
  // A range excluding 42 must prune the (only) fragment on the header
  // statistics alone.
  const ReadResult miss = reopened.scan_region_where(
      Box::whole(shape), ValueRange::at_least(100.0));
  EXPECT_EQ(miss.fragments_visited, 0u);
  const ReadResult hit = reopened.scan_region_where(
      Box::whole(shape), ValueRange{42.0, 42.0});
  EXPECT_EQ(hit.values.size(), 1u);
}

TEST_F(PredicateTest, InvertedRangeRejected) {
  FragmentStore store(dir_, Shape{8, 8});
  EXPECT_THROW(
      store.scan_region_where(Box::whole(Shape{8, 8}), ValueRange{5.0, 1.0}),
      FormatError);
}

TEST_F(PredicateTest, DefaultRangeEqualsPlainScan) {
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, MspConfig{0.02, 0.5}, 6);
  store.write(dataset.coords, dataset.values, OrgKind::kCsf);
  const Box region({4, 4}, {28, 28});
  const ReadResult plain = store.scan_region(region);
  const ReadResult with_default =
      store.scan_region_where(region, ValueRange{});
  EXPECT_EQ(plain.values, with_default.values);
}

}  // namespace
}  // namespace artsparse
