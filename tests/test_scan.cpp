// Native box-scan tests: for every organization, scan_box must return
// exactly the stored points inside the box (same set as per-cell lookups),
// with slots that resolve to the right values — plus format-specific
// pruning edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/linearize.hpp"
#include "formats/registry.hpp"
#include "patterns/dataset.hpp"
#include "storage/fragment_store.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

struct ScanCase {
  OrgKind org;
  std::size_t rank;
  PatternKind pattern;
};

// The ctest name carries this dump; zero padding keeps it stable.
void PrintTo(const ScanCase& c, std::ostream* os) {
  testing::print_zero_padded(c, os, &ScanCase::org, &ScanCase::rank,
                             &ScanCase::pattern);
}

std::string case_name(const ::testing::TestParamInfo<ScanCase>& info) {
  std::string name = to_string(info.param.org) + "_" +
                     std::to_string(info.param.rank) + "D_" +
                     to_string(info.param.pattern);
  std::erase(name, '+');
  return name;
}

SparseDataset scan_dataset(std::size_t rank, PatternKind pattern) {
  const index_t extent = rank == 2 ? 64 : rank == 3 ? 24 : 10;
  const Shape shape = Shape::uniform(rank, extent);
  PatternSpec spec;
  switch (pattern) {
    case PatternKind::kTsp:
      spec = TspConfig{3};
      break;
    case PatternKind::kGsp:
      spec = GspConfig{0.08};
      break;
    case PatternKind::kMsp:
      spec = MspConfig{0.02, 0.6};
      break;
  }
  return make_dataset(shape, spec, /*seed=*/4321);
}

Box middle_box(const Shape& shape) {
  std::vector<index_t> lo(shape.rank());
  std::vector<index_t> hi(shape.rank());
  for (std::size_t i = 0; i < shape.rank(); ++i) {
    lo[i] = shape.extent(i) / 4;
    hi[i] = shape.extent(i) - shape.extent(i) / 4;
  }
  return Box(std::move(lo), std::move(hi));
}

class ScanBox : public ::testing::TestWithParam<ScanCase> {};

TEST_P(ScanBox, FindsExactlyTheStoredPointsInBox) {
  const auto& param = GetParam();
  const SparseDataset dataset = scan_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);
  const Box box = middle_box(dataset.shape);

  CoordBuffer points(dataset.shape.rank());
  std::vector<std::size_t> slots;
  format->scan_box(box, points, slots);
  ASSERT_EQ(points.size(), slots.size());

  std::set<index_t> scanned;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(box.contains(points.point(i)));
    scanned.insert(linearize(points.point(i), dataset.shape));
  }
  EXPECT_EQ(scanned.size(), points.size()) << "scan returned duplicates";

  std::set<index_t> expected;
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    if (box.contains(dataset.coords.point(i))) {
      expected.insert(linearize(dataset.coords.point(i), dataset.shape));
    }
  }
  EXPECT_EQ(scanned, expected);
}

TEST_P(ScanBox, SlotsAgreeWithLookup) {
  const auto& param = GetParam();
  const SparseDataset dataset = scan_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);
  const Box box = middle_box(dataset.shape);

  CoordBuffer points(dataset.shape.rank());
  std::vector<std::size_t> slots;
  format->scan_box(box, points, slots);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(slots[i], format->lookup(points.point(i)));
  }
}

TEST_P(ScanBox, DisjointBoxIsEmpty) {
  const auto& param = GetParam();
  // Points near the origin, box in the far corner.
  const Shape shape = Shape::uniform(param.rank, 100);
  CoordBuffer coords(param.rank);
  coords.append(std::vector<index_t>(param.rank, 1));
  coords.append(std::vector<index_t>(param.rank, 3));
  auto format = make_format(param.org);
  format->build(coords, shape);

  const Box far(std::vector<index_t>(param.rank, 90),
                std::vector<index_t>(param.rank, 99));
  CoordBuffer points(param.rank);
  std::vector<std::size_t> slots;
  format->scan_box(far, points, slots);
  EXPECT_TRUE(points.empty());
  EXPECT_TRUE(slots.empty());
}

TEST_P(ScanBox, WholeTensorBoxReturnsEverything) {
  const auto& param = GetParam();
  const SparseDataset dataset = scan_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);

  CoordBuffer points(dataset.shape.rank());
  std::vector<std::size_t> slots;
  format->scan_box(Box::whole(dataset.shape), points, slots);
  EXPECT_EQ(points.size(), dataset.point_count());
}

TEST_P(ScanBox, SingleCellBox) {
  const auto& param = GetParam();
  const SparseDataset dataset = scan_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);

  const auto target = dataset.coords.point(dataset.coords.size() / 2);
  const Box cell(std::vector<index_t>(target.begin(), target.end()),
                 std::vector<index_t>(target.begin(), target.end()));
  CoordBuffer points(dataset.shape.rank());
  std::vector<std::size_t> slots;
  format->scan_box(cell, points, slots);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(slots[0], format->lookup(target));
}

TEST_P(ScanBox, EmptyFormatScansEmpty) {
  const auto& param = GetParam();
  const Shape shape = Shape::uniform(param.rank, 16);
  auto format = make_format(param.org);
  format->build(CoordBuffer(param.rank), shape);
  CoordBuffer points(param.rank);
  std::vector<std::size_t> slots;
  format->scan_box(Box::whole(shape), points, slots);
  EXPECT_TRUE(points.empty());
}

std::vector<ScanCase> scan_cases() {
  std::vector<ScanCase> cases;
  for (OrgKind org : all_org_kinds()) {
    for (std::size_t rank : {2u, 3u, 4u}) {
      for (PatternKind pattern :
           {PatternKind::kTsp, PatternKind::kGsp, PatternKind::kMsp}) {
        cases.push_back({org, rank, pattern});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOrgs, ScanBox, ::testing::ValuesIn(scan_cases()),
                         case_name);

// ---------- store-level scan_region ----------

TEST(ScanRegion, MatchesReadRegion) {
  const auto dir = testing::fresh_temp_dir("scan_region");
  const Shape shape{48, 48, 48};
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.02}, 5);

  for (OrgKind org : kPaperOrgs) {
    FragmentStore store(dir / to_string(org), shape);
    store.write(dataset.coords, dataset.values, org);
    const Box region({10, 10, 10}, {40, 40, 40});
    const ReadResult scanned = store.scan_region(region);
    const ReadResult queried = store.read_region(region);
    EXPECT_EQ(scanned.values, queried.values) << to_string(org);
    EXPECT_TRUE(scanned.coords == queried.coords) << to_string(org);
  }
  std::filesystem::remove_all(dir);
}

TEST(ScanRegion, MergesMultipleFragments) {
  const auto dir = testing::fresh_temp_dir("scan_merge");
  const Shape shape{64, 64};
  FragmentStore store(dir, shape);
  for (index_t base : {index_t{0}, index_t{20}, index_t{40}}) {
    CoordBuffer coords(2);
    std::vector<value_t> values;
    for (index_t i = 0; i < 8; ++i) {
      coords.append({base + i, base + i});
      values.push_back(expected_value(coords.point(coords.size() - 1),
                                      shape));
    }
    store.write(coords, values, OrgKind::kCsf);
  }
  const ReadResult result = store.scan_region(Box({0, 0}, {63, 63}));
  EXPECT_EQ(result.values.size(), 24u);
  for (std::size_t i = 1; i < result.values.size(); ++i) {
    EXPECT_LT(linearize(result.coords.point(i - 1), shape),
              linearize(result.coords.point(i), shape));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace artsparse
