#include "formats/compressed_2d.hpp"

#include <gtest/gtest.h>

#include "core/sort.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

using testing::fig1_coords;
using testing::fig1_shape;

// For Fig. 1's five points the local boundary is [0..2, 0..2, 1..2], so the
// local shape is (3, 3, 2); the smallest extent (2, from dimension 2)
// becomes the rows, 3*3 = 9 the columns. Local row-major addresses are
// 0, 2, 3, 16, 17, giving 2-D cells (0,0), (0,2), (0,3), (1,7), (1,8).
TEST(Gcsr, Fig1Structure) {
  GcsrFormat gcsr;
  const auto map = gcsr.build(fig1_coords(), fig1_shape());
  EXPECT_EQ(gcsr.rows(), 2u);
  EXPECT_EQ(gcsr.cols(), 9u);
  EXPECT_EQ(std::vector<index_t>(gcsr.row_ptr().begin(),
                                 gcsr.row_ptr().end()),
            (std::vector<index_t>{0, 3, 5}));
  EXPECT_EQ(std::vector<index_t>(gcsr.col_ind().begin(),
                                 gcsr.col_ind().end()),
            (std::vector<index_t>{0, 2, 3, 7, 8}));
  // Input was already row-ordered: identity map.
  EXPECT_EQ(map, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Gcsr, LookupFindsEveryStoredPoint) {
  GcsrFormat gcsr;
  const CoordBuffer coords = fig1_coords();
  const auto map = gcsr.build(coords, fig1_shape());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(gcsr.lookup(coords.point(i)), map[i]);
  }
}

TEST(Gcsr, MissesAbsentPoints) {
  GcsrFormat gcsr;
  gcsr.build(fig1_coords(), fig1_shape());
  const std::vector<index_t> in_box_absent{0, 0, 2};
  const std::vector<index_t> outside_box{0, 0, 0};  // dim2 < boundary lo
  EXPECT_EQ(gcsr.lookup(in_box_absent), kNotFound);
  EXPECT_EQ(gcsr.lookup(outside_box), kNotFound);
}

TEST(Gcsr, UnsortedInputProducesSortingMap) {
  CoordBuffer coords(2);
  coords.append({3, 0});
  coords.append({0, 0});
  coords.append({1, 1});
  GcsrFormat gcsr;
  const auto map = gcsr.build(coords, Shape{4, 4});
  // 2-D rows come from the boundary's smaller extent; lookups must route
  // through the map regardless of the exact mapping.
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(gcsr.lookup(coords.point(i)), map[i]);
  }
  EXPECT_TRUE(is_permutation_of_iota(map));
}

TEST(Gcsr, RowPtrIsMonotoneAndCoversAllPoints) {
  GcsrFormat gcsr;
  gcsr.build(fig1_coords(), fig1_shape());
  const auto row_ptr = gcsr.row_ptr();
  for (std::size_t r = 1; r < row_ptr.size(); ++r) {
    EXPECT_LE(row_ptr[r - 1], row_ptr[r]);
  }
  EXPECT_EQ(row_ptr.front(), 0u);
  EXPECT_EQ(row_ptr.back(), gcsr.point_count());
}

TEST(Gcsr, SpaceIsNPlusMinExtent) {
  GcsrFormat gcsr;
  gcsr.build(fig1_coords(), fig1_shape());
  // col_ind: n words; row_ptr: rows+1 words. Far below COO's n*d.
  const std::size_t expected_words = 5 + (2 + 1);
  EXPECT_GE(gcsr.index_bytes(), expected_words * sizeof(index_t));
  EXPECT_LT(gcsr.index_bytes(), 5 * 3 * sizeof(index_t) + 96);
}

TEST(Gcsr, SaveLoadRoundTrip) {
  GcsrFormat gcsr;
  const CoordBuffer coords = fig1_coords();
  const auto map = gcsr.build(coords, fig1_shape());
  GcsrFormat fresh;
  testing::reload(gcsr, fresh);
  EXPECT_EQ(fresh.rows(), gcsr.rows());
  EXPECT_EQ(fresh.cols(), gcsr.cols());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(fresh.lookup(coords.point(i)), map[i]);
  }
}

TEST(Gcsr, CorruptRowPtrRejectedOnLoad) {
  GcsrFormat gcsr;
  gcsr.build(fig1_coords(), fig1_shape());
  BufferWriter writer;
  gcsr.save(writer);
  Bytes bytes = writer.take();
  // Truncate the payload: load must fail loudly, not read garbage.
  bytes.resize(bytes.size() / 2);
  GcsrFormat fresh;
  BufferReader reader(bytes);
  EXPECT_THROW(fresh.load(reader), FormatError);
}

TEST(Gcsr, BatchReadMatchesLookup) {
  GcsrFormat gcsr;
  const CoordBuffer coords = fig1_coords();
  gcsr.build(coords, fig1_shape());
  CoordBuffer queries(3);
  queries.append({0, 1, 2});
  queries.append({1, 1, 1});
  queries.append({0, 0, 0});
  queries.append({2, 2, 2});
  const auto slots = gcsr.read(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(slots[i], gcsr.lookup(queries.point(i)));
  }
}

TEST(Gcsr, EmptyBuild) {
  GcsrFormat gcsr;
  EXPECT_TRUE(gcsr.build(CoordBuffer(3), fig1_shape()).empty());
  const std::vector<index_t> point{0, 0, 1};
  EXPECT_EQ(gcsr.lookup(point), kNotFound);
}

TEST(Gcsr, TwoDimensionalInputIsPlainCsr) {
  // For 2-D tensors GCSR++ degenerates to classic CSR over the bounding
  // box — the reason it wins at 2-D reads in Fig. 5.
  CoordBuffer coords(2);
  coords.append({0, 0});
  coords.append({0, 3});
  coords.append({2, 1});
  GcsrFormat gcsr;
  const auto map = gcsr.build(coords, Shape{3, 4});
  EXPECT_EQ(gcsr.rows(), 3u);  // boundary rows 0..2
  EXPECT_EQ(gcsr.cols(), 4u);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(gcsr.lookup(coords.point(i)), map[i]);
  }
}

}  // namespace
}  // namespace artsparse
