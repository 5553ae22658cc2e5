#include "tiles/tiled_store.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/linearize.hpp"
#include "core/rng.hpp"
#include "patterns/dataset.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

// ---------- TileGrid ----------

TEST(TileGrid, GridShapeCeilDivides) {
  const TileGrid grid(Shape{100, 64}, Shape{32, 32});
  EXPECT_EQ(grid.grid_shape(), (Shape{4, 2}));
  EXPECT_EQ(grid.tile_count(), 8u);
}

TEST(TileGrid, TileOfPoint) {
  const TileGrid grid(Shape{100, 64}, Shape{32, 32});
  const std::vector<index_t> p{33, 5};
  EXPECT_EQ(grid.tile_of(p), (std::vector<index_t>{1, 0}));
  EXPECT_EQ(grid.tile_id_of(p), 2u);  // row-major in a 4x2 grid
}

TEST(TileGrid, OversizedTileRejected) {
  EXPECT_THROW(TileGrid(Shape{16, 16}, Shape{32, 16}), FormatError);
}

TEST(TileGrid, RankMismatchRejected) {
  EXPECT_THROW(TileGrid(Shape{16, 16}, Shape{8}), FormatError);
  const TileGrid grid(Shape{16, 16}, Shape{8, 8});
  const std::vector<index_t> bad{1, 2, 3};
  EXPECT_THROW(grid.tile_of(bad), FormatError);
}

TEST(TileGrid, PointOutsideTensorRejected) {
  const TileGrid grid(Shape{16, 16}, Shape{8, 8});
  const std::vector<index_t> outside{16, 0};
  EXPECT_THROW(grid.tile_of(outside), FormatError);
}

// ---------- TiledStore ----------

class TiledStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("tiles"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(TiledStoreTest, WriteSplitsBatchIntoTileFragments) {
  const Shape shape{64, 64};
  TiledStore store(dir_, TileGrid(shape, Shape{32, 32}),
                   TilePolicy::fixed(OrgKind::kLinear));
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.05}, 3);
  const TiledWriteResult written =
      store.write(dataset.coords, dataset.values);
  EXPECT_EQ(written.tiles_written, 4u);  // dense-enough random data
  EXPECT_EQ(store.fragment_count(), 4u);
  EXPECT_EQ(written.point_count, dataset.point_count());
}

TEST_F(TiledStoreTest, ReadsMatchAcrossTileBoundaries) {
  const Shape shape{64, 64};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}),
                   TilePolicy::fixed(OrgKind::kCsf));
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.08}, 9);
  store.write(dataset.coords, dataset.values);

  // Region crossing many tiles.
  const Box region({10, 10}, {50, 50});
  const ReadResult result = store.scan_region(region);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    if (region.contains(dataset.coords.point(i))) ++expected;
  }
  ASSERT_EQ(result.values.size(), expected);
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    EXPECT_EQ(result.values[i],
              expected_value(result.coords.point(i), shape));
  }
}

TEST_F(TiledStoreTest, ScanAndQueryAgree) {
  const Shape shape{48, 48};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}),
                   TilePolicy::fixed(OrgKind::kGcsr));
  const SparseDataset dataset = make_dataset(shape, MspConfig{0.01, 0.5}, 4);
  store.write(dataset.coords, dataset.values);
  const Box region({8, 8}, {40, 40});
  const ReadResult scanned = store.scan_region(region);
  const ReadResult queried = store.read_region(region);
  EXPECT_EQ(scanned.values, queried.values);
}

TEST_F(TiledStoreTest, DiscoveryPrunesNonOverlappingTiles) {
  const Shape shape{64, 64};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}),
                   TilePolicy::fixed(OrgKind::kLinear));
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.1}, 8);
  store.write(dataset.coords, dataset.values);
  EXPECT_EQ(store.fragment_count(), 16u);

  // A region inside one tile must open exactly one fragment.
  const ReadResult result = store.scan_region(Box({0, 0}, {10, 10}));
  EXPECT_EQ(result.fragments_visited, 1u);
}

TEST_F(TiledStoreTest, AdvisorPolicyPicksPerTile) {
  // A tensor whose left half is a dense diagonal band and right half is
  // random scatter: the advisor sees different profiles per tile.
  const Shape shape{64, 64};
  TiledStore store(dir_, TileGrid(shape, Shape{32, 32}),
                   TilePolicy::advisor(WorkloadWeights::read_mostly(), 1.0));
  CoordBuffer coords(2);
  std::vector<value_t> values;
  for (index_t i = 0; i < 32; ++i) {
    coords.append({i, i});  // tile (0,0): diagonal
  }
  Xoshiro256 rng(3);
  for (int k = 0; k < 200; ++k) {
    coords.append({rng.next_below(32), 32 + rng.next_below(32)});
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    values.push_back(expected_value(coords.point(i), shape));
  }
  const TiledWriteResult written = store.write(coords, values);
  EXPECT_EQ(written.tiles_written, 2u);
  for (const auto& [tile, org] : written.tile_orgs) {
    // Read-heavy weights must avoid the scan formats everywhere.
    EXPECT_NE(org, OrgKind::kCoo);
    EXPECT_NE(org, OrgKind::kLinear);
  }

  const ReadResult all = store.scan_region(Box::whole(shape));
  EXPECT_EQ(all.values.size(), coords.size());
}

TEST_F(TiledStoreTest, MultipleWritesAppendFragments) {
  const Shape shape{32, 32};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}),
                   TilePolicy::fixed(OrgKind::kCoo));
  CoordBuffer a(2);
  a.append({0, 0});
  CoordBuffer b(2);
  b.append({0, 1});
  const std::vector<value_t> va{expected_value(a.point(0), shape)};
  const std::vector<value_t> vb{expected_value(b.point(0), shape)};
  store.write(a, va);
  store.write(b, vb);
  EXPECT_EQ(store.fragment_count(), 2u);  // same tile, two fragments
  const ReadResult result = store.scan_region(Box({0, 0}, {1, 1}));
  EXPECT_EQ(result.values.size(), 2u);
}

TEST_F(TiledStoreTest, MismatchedValueCountRejected) {
  const Shape shape{32, 32};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}));
  CoordBuffer coords(2);
  coords.append({1, 1});
  const std::vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(store.write(coords, values), FormatError);
}

TEST_F(TiledStoreTest, DuplicatePointAcrossWritesBothReturned) {
  // Fragments are immutable; overlapping writes both surface (the caller
  // deduplicates by recency if needed — documented behaviour).
  const Shape shape{32, 32};
  TiledStore store(dir_, TileGrid(shape, Shape{16, 16}),
                   TilePolicy::fixed(OrgKind::kLinear));
  CoordBuffer coords(2);
  coords.append({5, 5});
  const std::vector<value_t> v1{1.0};
  const std::vector<value_t> v2{2.0};
  store.write(coords, v1);
  store.write(coords, v2);
  const ReadResult result = store.scan_region(Box({5, 5}, {5, 5}));
  EXPECT_EQ(result.values.size(), 2u);
}

}  // namespace
}  // namespace artsparse
