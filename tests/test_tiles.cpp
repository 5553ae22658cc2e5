#include "tiles/tiled_write.hpp"

#include <gtest/gtest.h>

#include <set>

#include "advisor/advisor.hpp"
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

// ---------- write_tiled ----------

class TiledWrite : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("tiles"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(TiledWrite, WriteSplitsBatchIntoTileFragments) {
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.05}, 3);
  const TiledWriteResult written =
      write_tiled(store, TileGrid(shape, Shape{32, 32}), dataset.coords,
                  dataset.values, OrgKind::kLinear);
  EXPECT_EQ(written.tiles_written, 4u);  // dense-enough random data
  EXPECT_EQ(store.fragment_count(), 4u);
  EXPECT_EQ(written.point_count, dataset.point_count());
}

TEST_F(TiledWrite, ReadsMatchAcrossTileBoundaries) {
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.08}, 9);
  write_tiled(store, TileGrid(shape, Shape{16, 16}), dataset.coords,
              dataset.values, OrgKind::kCsf);

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

TEST_F(TiledWrite, ScanAndQueryAgree) {
  const Shape shape{48, 48};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, MspConfig{0.01, 0.5}, 4);
  write_tiled(store, TileGrid(shape, Shape{16, 16}), dataset.coords,
              dataset.values, OrgKind::kGcsr);
  const Box region({8, 8}, {40, 40});
  const ReadResult scanned = store.scan_region(region);
  const ReadResult queried = store.read_region(region);
  EXPECT_EQ(scanned.values, queried.values);
}

TEST_F(TiledWrite, DiscoveryPrunesNonOverlappingTiles) {
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.1}, 8);
  write_tiled(store, TileGrid(shape, Shape{16, 16}), dataset.coords,
              dataset.values, OrgKind::kLinear);
  EXPECT_EQ(store.fragment_count(), 16u);

  // A region inside one tile must open exactly one fragment.
  const ReadResult result = store.scan_region(Box({0, 0}, {10, 10}));
  EXPECT_EQ(result.fragments_visited, 1u);
}

TEST_F(TiledWrite, AdvisorPolicyPicksPerTile) {
  // A tensor whose top-left tile is a dense diagonal band, top-right tile
  // random scatter and bottom-left tile one lone point: the advisor sees
  // different profiles per tile.
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);
  const TileGrid grid(shape, Shape{32, 32});
  CoordBuffer diagonal(2);
  for (index_t i = 0; i < 32; ++i) {
    diagonal.append({i, i});  // tile (0,0)
  }
  CoordBuffer scatter(2);
  Xoshiro256 rng(3);
  for (int k = 0; k < 200; ++k) {
    scatter.append({rng.next_below(32), 32 + rng.next_below(32)});  // (0,1)
  }
  CoordBuffer lone(2);
  lone.append({40, 5});  // tile (1,0)
  CoordBuffer coords = diagonal;
  for (std::size_t i = 0; i < scatter.size(); ++i) {
    coords.append(scatter.point(i));
  }
  coords.append(lone.point(0));
  std::vector<value_t> values;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    values.push_back(expected_value(coords.point(i), shape));
  }
  const TiledWriteResult written =
      write_tiled(store, grid, coords, values, std::nullopt);
  EXPECT_EQ(written.tiles_written, 3u);
  // Each tile gets what the advisor picks for that tile's points alone,
  // and the picks differ.
  const std::map<index_t, OrgKind> expected{
      {0, choose_organization(std::nullopt, diagonal, shape)},
      {1, choose_organization(std::nullopt, scatter, shape)},
      {2, choose_organization(std::nullopt, lone, shape)}};
  EXPECT_EQ(written.tile_orgs, expected);
  EXPECT_NE(written.tile_orgs.at(1), written.tile_orgs.at(2));

  const ReadResult all = store.scan_region(Box::whole(shape));
  EXPECT_EQ(all.values.size(), coords.size());
}

TEST_F(TiledWrite, MultipleWritesAppendFragments) {
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  const TileGrid grid(shape, Shape{16, 16});
  CoordBuffer a(2);
  a.append({0, 0});
  CoordBuffer b(2);
  b.append({0, 1});
  const std::vector<value_t> va{expected_value(a.point(0), shape)};
  const std::vector<value_t> vb{expected_value(b.point(0), shape)};
  write_tiled(store, grid, a, va, OrgKind::kCoo);
  write_tiled(store, grid, b, vb, OrgKind::kCoo);
  EXPECT_EQ(store.fragment_count(), 2u);  // same tile, two fragments
  const ReadResult result = store.scan_region(Box({0, 0}, {1, 1}));
  EXPECT_EQ(result.values.size(), 2u);
}

TEST_F(TiledWrite, MismatchedValueCountRejected) {
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  CoordBuffer coords(2);
  coords.append({1, 1});
  const std::vector<value_t> values{1.0, 2.0};
  EXPECT_THROW(write_tiled(store, TileGrid(shape, Shape{16, 16}), coords,
                           values, OrgKind::kGcsr),
               FormatError);
}

TEST_F(TiledWrite, GridOfAnotherShapeRejected) {
  FragmentStore store(dir_, Shape{32, 32});
  CoordBuffer coords(2);
  coords.append({1, 1});
  const std::vector<value_t> values{1.0};
  EXPECT_THROW(write_tiled(store, TileGrid(Shape{64, 64}, Shape{16, 16}),
                           coords, values, OrgKind::kGcsr),
               FormatError);
  EXPECT_EQ(store.fragment_count(), 0u);
}

TEST_F(TiledWrite, DuplicatePointAcrossWritesBothReturned) {
  // Fragments are immutable; overlapping writes both surface (the caller
  // deduplicates by recency if needed — documented behaviour).
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  const TileGrid grid(shape, Shape{16, 16});
  CoordBuffer coords(2);
  coords.append({5, 5});
  const std::vector<value_t> v1{1.0};
  const std::vector<value_t> v2{2.0};
  write_tiled(store, grid, coords, v1, OrgKind::kLinear);
  write_tiled(store, grid, coords, v2, OrgKind::kLinear);
  const ReadResult result = store.scan_region(Box({5, 5}, {5, 5}));
  EXPECT_EQ(result.values.size(), 2u);
}

}  // namespace
}  // namespace artsparse
