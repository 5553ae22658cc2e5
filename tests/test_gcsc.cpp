#include "formats/compressed_2d.hpp"

#include <gtest/gtest.h>

#include "core/sort.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

using testing::fig1_coords;
using testing::fig1_shape;

// Same local boundary as GCSR++ ([0..2, 0..2, 1..2], local shape (3,3,2)),
// but the smallest extent (2) becomes the *columns*: 2-D shape 9x2. Local
// addresses 0, 2, 3, 16, 17 give (row, col) = (0,0), (1,0), (1,1), (8,0),
// (8,1); sorting by column groups inputs {0, 1, 3} then {2, 4}.
TEST(Gcsc, Fig1Structure) {
  GcscFormat gcsc;
  const auto map = gcsc.build(fig1_coords(), fig1_shape());
  EXPECT_EQ(gcsc.rows(), 9u);
  EXPECT_EQ(gcsc.cols(), 2u);
  EXPECT_EQ(std::vector<index_t>(gcsc.col_ptr().begin(),
                                 gcsc.col_ptr().end()),
            (std::vector<index_t>{0, 3, 5}));
  EXPECT_EQ(std::vector<index_t>(gcsc.row_ind().begin(),
                                 gcsc.row_ind().end()),
            (std::vector<index_t>{0, 1, 8, 1, 8}));
  EXPECT_EQ(map, (std::vector<std::size_t>{0, 1, 3, 2, 4}));
}

TEST(Gcsc, LookupFindsEveryStoredPoint) {
  GcscFormat gcsc;
  const CoordBuffer coords = fig1_coords();
  const auto map = gcsc.build(coords, fig1_shape());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(gcsc.lookup(coords.point(i)), map[i]);
  }
}

TEST(Gcsc, MissesAbsentPoints) {
  GcscFormat gcsc;
  gcsc.build(fig1_coords(), fig1_shape());
  const std::vector<index_t> absent{0, 0, 2};
  const std::vector<index_t> outside{0, 0, 0};
  EXPECT_EQ(gcsc.lookup(absent), kNotFound);
  EXPECT_EQ(gcsc.lookup(outside), kNotFound);
}

TEST(Gcsc, ColPtrMonotoneAndCoversAllPoints) {
  GcscFormat gcsc;
  gcsc.build(fig1_coords(), fig1_shape());
  const auto col_ptr = gcsc.col_ptr();
  for (std::size_t c = 1; c < col_ptr.size(); ++c) {
    EXPECT_LE(col_ptr[c - 1], col_ptr[c]);
  }
  EXPECT_EQ(col_ptr.back(), gcsc.point_count());
}

TEST(Gcsc, MapIsAlwaysPermutation) {
  CoordBuffer coords(3);
  coords.append({5, 0, 3});
  coords.append({0, 2, 1});
  coords.append({3, 1, 0});
  coords.append({1, 1, 1});
  GcscFormat gcsc;
  const auto map = gcsc.build(coords, Shape{8, 8, 8});
  EXPECT_TRUE(is_permutation_of_iota(map));
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(gcsc.lookup(coords.point(i)), map[i]);
  }
}

TEST(Gcsc, SameIndexSizeAsGcsr) {
  // Fig. 4: GCSR++ and GCSC++ yield "very similar" sizes — both store n
  // index words plus min(m)+1 pointers.
  GcscFormat gcsc;
  gcsc.build(fig1_coords(), fig1_shape());
  const std::size_t expected_words = 5 + (2 + 1);
  EXPECT_GE(gcsc.index_bytes(), expected_words * sizeof(index_t));
  EXPECT_LT(gcsc.index_bytes(), 5 * 3 * sizeof(index_t) + 96);
}

TEST(Gcsc, SaveLoadRoundTrip) {
  GcscFormat gcsc;
  const CoordBuffer coords = fig1_coords();
  const auto map = gcsc.build(coords, fig1_shape());
  GcscFormat fresh;
  testing::reload(gcsc, fresh);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(fresh.lookup(coords.point(i)), map[i]);
  }
}

TEST(Gcsc, BatchReadMatchesLookup) {
  GcscFormat gcsc;
  gcsc.build(fig1_coords(), fig1_shape());
  CoordBuffer queries(3);
  queries.append({2, 2, 2});
  queries.append({0, 0, 1});
  queries.append({1, 1, 1});
  const auto slots = gcsc.read(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(slots[i], gcsc.lookup(queries.point(i)));
  }
}

TEST(Gcsc, EmptyBuild) {
  GcscFormat gcsc;
  EXPECT_TRUE(gcsc.build(CoordBuffer(3), fig1_shape()).empty());
  const std::vector<index_t> point{0, 0, 1};
  EXPECT_EQ(gcsc.lookup(point), kNotFound);
}

TEST(Gcsc, CorruptPayloadRejectedOnLoad) {
  GcscFormat gcsc;
  gcsc.build(fig1_coords(), fig1_shape());
  BufferWriter writer;
  gcsc.save(writer);
  Bytes bytes = writer.take();
  bytes.resize(bytes.size() - 8);
  GcscFormat fresh;
  BufferReader reader(bytes);
  EXPECT_THROW(fresh.load(reader), FormatError);
}

}  // namespace
}  // namespace artsparse
