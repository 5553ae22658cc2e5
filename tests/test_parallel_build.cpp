// Determinism suite for the parallel build pipeline: every format's
// build() must be a pure function of its input — the serialized fragment
// bytes and the returned `map` vector may not vary with ARTSPARSE_THREADS.
// The contract rests on stable-sort uniqueness: a stable sort's output
// permutation is fully determined by the keys, so the chunk-sort + merge
// path, the counting path, and the serial path are interchangeable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/coords.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"
#include "core/sort.hpp"
#include "formats/format.hpp"
#include "formats/registry.hpp"
#include "patterns/dataset.hpp"
#include "storage/serializer.hpp"

namespace artsparse {
namespace {

/// Thread counts the suite sweeps: serial, even, odd-prime, and whatever
/// the host hardware reports.
std::vector<const char*> thread_settings() {
  return {"1", "2", "7", nullptr};  // nullptr = unset (hardware)
}

void set_threads(const char* value) {
  if (value) {
    ::setenv("ARTSPARSE_THREADS", value, 1);
  } else {
    ::unsetenv("ARTSPARSE_THREADS");
  }
}

class ParallelBuild : public ::testing::Test {
 protected:
  // Restore (not just unset) the ambient value: CI runs the whole suite
  // with ARTSPARSE_THREADS pinned, and later tests must still see it.
  void SetUp() override {
    const char* ambient = std::getenv("ARTSPARSE_THREADS");
    had_ambient_ = ambient != nullptr;
    if (had_ambient_) ambient_ = ambient;
  }
  void TearDown() override {
    if (had_ambient_) {
      ::setenv("ARTSPARSE_THREADS", ambient_.c_str(), 1);
    } else {
      ::unsetenv("ARTSPARSE_THREADS");
    }
  }

 private:
  bool had_ambient_ = false;
  std::string ambient_;
};

/// Large enough to clear kParallelGrain so the parallel paths engage.
CoordBuffer dense_random_coords(std::size_t n, const Shape& shape,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<index_t> flat;
  flat.reserve(n * shape.rank());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t dim = 0; dim < shape.rank(); ++dim) {
      flat.push_back(rng.next_below(shape.extent(dim)));
    }
  }
  return CoordBuffer(shape.rank(), std::move(flat));
}

/// Formats to sweep. BCSR rejects duplicate coordinates by contract, so
/// duplicate-bearing inputs exclude it.
std::vector<OrgKind> swept_orgs(bool has_duplicates) {
  std::vector<OrgKind> orgs;
  for (OrgKind org : all_org_kinds()) {
    if (has_duplicates && org == OrgKind::kBcsr) continue;
    orgs.push_back(org);
  }
  return orgs;
}

void expect_identical_across_threads(const CoordBuffer& coords,
                                     const Shape& shape,
                                     bool has_duplicates = false) {
  for (OrgKind org : swept_orgs(has_duplicates)) {
    Bytes baseline_bytes;
    std::vector<std::size_t> baseline_map;
    bool first = true;
    for (const char* threads : thread_settings()) {
      set_threads(threads);
      auto format = make_format(org);
      std::vector<std::size_t> map = format->build(coords, shape);
      Bytes bytes = serialize_format(*format);
      const std::string label =
          to_string(org) + " threads=" + (threads ? threads : "hw");
      if (first) {
        baseline_bytes = std::move(bytes);
        baseline_map = std::move(map);
        first = false;
      } else {
        EXPECT_EQ(bytes, baseline_bytes) << label;
        EXPECT_EQ(map, baseline_map) << label;
      }
    }
    ::unsetenv("ARTSPARSE_THREADS");
  }
}

TEST_F(ParallelBuild, EveryFormatByteIdenticalAcrossThreadCounts) {
  // Small extents force heavy key duplication: each of the ~131k points
  // collides with many others in every sort key, so tie-breaking order is
  // what the serialized bytes actually witness.
  const Shape shape{16, 16, 16, 16};
  expect_identical_across_threads(
      dense_random_coords(kParallelGrain * 4 + 7, shape, 97), shape,
      /*has_duplicates=*/true);
}

TEST_F(ParallelBuild, DuplicateCoordinatesKeepInputOrder) {
  // Exact duplicate points: their relative order in the value buffer is
  // observable through `map` and must not depend on which chunk sorted
  // them.
  const Shape shape{8, 8};
  CoordBuffer coords(2);
  Xoshiro256 rng(5);
  for (std::size_t i = 0; i < kParallelGrain * 2; ++i) {
    const index_t r = rng.next_below(8);
    const index_t c = rng.next_below(8);
    coords.append({r, c});
    coords.append({r, c});  // every point appears at least twice
  }
  expect_identical_across_threads(coords, shape, /*has_duplicates=*/true);
}

TEST_F(ParallelBuild, AllEqualCoordinates) {
  // One coordinate repeated past the grain: every key comparison ties.
  const Shape shape{4, 4, 4};
  CoordBuffer coords(3);
  for (std::size_t i = 0; i < kParallelGrain + 100; ++i) {
    coords.append({1, 2, 3});
  }
  expect_identical_across_threads(coords, shape, /*has_duplicates=*/true);
}

TEST_F(ParallelBuild, PatternDatasetMatchesAcrossThreadCounts) {
  // A realistic generator-produced dataset (no duplicates, structured
  // sparsity) through the same sweep.
  const Shape shape{64, 64, 64};
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.5}, 31);
  ASSERT_GT(dataset.point_count(), kParallelGrain);
  expect_identical_across_threads(dataset.coords, shape);
}

TEST_F(ParallelBuild, MapIsAlwaysAPermutation) {
  const Shape shape{16, 16, 16};
  const CoordBuffer coords =
      dense_random_coords(kParallelGrain * 2, shape, 13);
  ::setenv("ARTSPARSE_THREADS", "7", 1);
  for (OrgKind org : swept_orgs(/*has_duplicates=*/true)) {
    auto format = make_format(org);
    const std::vector<std::size_t> map = format->build(coords, shape);
    EXPECT_TRUE(is_permutation_of_iota(map)) << to_string(org);
  }
}

/// CRC-32 of a length-prefixed u64 vector, so sequences that differ only
/// in length or order never collide by construction.
std::uint32_t crc_of(std::span<const std::size_t> values) {
  BufferWriter out;
  out.put_u64_vec(std::vector<std::uint64_t>(values.begin(), values.end()));
  return crc32(out.bytes());
}

/// CRCs of everything a format's build and scan make observable.
struct BuildCrcs {
  std::uint32_t bytes = 0;  ///< save() bytes
  std::uint32_t map = 0;    ///< build() map
  std::uint32_t whole = 0;  ///< scan_box(Box::whole) points, then slots
  std::uint32_t sub = 0;    ///< scan_box(interior sub-box) points, then slots
};

std::uint32_t scan_crc(const SparseFormat& format, const Box& box) {
  CoordBuffer points(box.rank());
  std::vector<std::size_t> slots;
  format.scan_box(box, points, slots);
  BufferWriter out;
  out.put_u64_vec(points.flat());
  out.put_u64_vec(std::vector<std::uint64_t>(slots.begin(), slots.end()));
  return crc32(out.bytes());
}

BuildCrcs build_crcs(OrgKind org, const CoordBuffer& coords,
                     const Shape& shape) {
  auto format = make_format(org);
  const std::vector<std::size_t> map = format->build(coords, shape);
  // Interior: clips every axis on both sides, unevenly, so row pruning and
  // the per-point box test both engage.
  std::vector<index_t> lo;
  std::vector<index_t> hi;
  for (std::size_t dim = 0; dim < shape.rank(); ++dim) {
    lo.push_back(shape.extent(dim) / 4);
    hi.push_back(shape.extent(dim) - 1 - shape.extent(dim) / 8);
  }
  return {crc32(serialize_format(*format)), crc_of(map),
          scan_crc(*format, Box::whole(shape)),
          scan_crc(*format, Box(std::move(lo), std::move(hi)))};
}

TEST_F(ParallelBuild, CompressedFormatsMatchPinnedCrcs) {
  // The duplicate-pair, all-equal and pattern-dataset inputs above, with
  // CRCs pinned from a known-good build: a refactor of GCSR++, GCSC++ or
  // BCSR must leave their bytes, map and scan hit order unchanged.
  CoordBuffer pairs(2);
  Xoshiro256 rng(5);
  for (std::size_t i = 0; i < kParallelGrain * 2; ++i) {
    const index_t r = rng.next_below(8);
    const index_t c = rng.next_below(8);
    pairs.append({r, c});
    pairs.append({r, c});
  }
  CoordBuffer all_equal(3);
  for (std::size_t i = 0; i < kParallelGrain + 100; ++i) {
    all_equal.append({1, 2, 3});
  }
  const Shape pattern_shape{64, 64, 64};
  const SparseDataset dataset =
      make_dataset(pattern_shape, GspConfig{0.5}, 31);

  struct Case {
    const char* input;
    OrgKind org;
    const CoordBuffer& coords;
    Shape shape;
    BuildCrcs expected;
  };
  // BCSR rejects duplicate coordinates, so it sees only the dataset.
  const Case cases[] = {
      {"pairs", OrgKind::kGcsr, pairs, Shape{8, 8},
       {0x33df8aad, 0x7618f8aa, 0x639fbf20, 0x01c99673}},
      {"pairs", OrgKind::kGcsc, pairs, Shape{8, 8},
       {0x7ddf0492, 0xd5709d93, 0xd3af7901, 0x7d59cf88}},
      {"all_equal", OrgKind::kGcsr, all_equal, Shape{4, 4, 4},
       {0xaf6300ad, 0x1e243b39, 0x1a2c98a6, 0x1a2c98a6}},
      {"all_equal", OrgKind::kGcsc, all_equal, Shape{4, 4, 4},
       {0xaf6300ad, 0x1e243b39, 0x1a2c98a6, 0x1a2c98a6}},
      {"dataset", OrgKind::kGcsr, dataset.coords, pattern_shape,
       {0x91bbf5a8, 0x827e8d27, 0x6abade54, 0xe6ccc4ef}},
      {"dataset", OrgKind::kGcsc, dataset.coords, pattern_shape,
       {0x2acacf40, 0xf6b638a6, 0x652b2109, 0x939e754d}},
      {"dataset", OrgKind::kBcsr, dataset.coords, pattern_shape,
       {0xe53aebb4, 0xfd0dc34c, 0xe388c21b, 0x2cd573e4}},
  };
  for (const Case& c : cases) {
    const BuildCrcs got = build_crcs(c.org, c.coords, c.shape);
    const std::string label = std::string(c.input) + " " + to_string(c.org);
    EXPECT_EQ(got.bytes, c.expected.bytes) << label << " save bytes";
    EXPECT_EQ(got.map, c.expected.map) << label << " build map";
    EXPECT_EQ(got.whole, c.expected.whole) << label << " whole scan";
    EXPECT_EQ(got.sub, c.expected.sub) << label << " interior scan";
  }
}

}  // namespace
}  // namespace artsparse
