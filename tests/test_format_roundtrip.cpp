// Property tests run uniformly over every organization: whatever is built
// must be findable (through the map), absent cells must miss, serialization
// must preserve behaviour, and the map must be a permutation. Swept across
// ranks and sparsity patterns with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/linearize.hpp"
#include "core/sort.hpp"
#include "formats/registry.hpp"
#include "patterns/dataset.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

struct RoundTripCase {
  OrgKind org;
  std::size_t rank;
  PatternKind pattern;
};

// The ctest name carries this dump; zero padding keeps it stable.
void PrintTo(const RoundTripCase& c, std::ostream* os) {
  testing::print_zero_padded(c, os, &RoundTripCase::org, &RoundTripCase::rank,
                             &RoundTripCase::pattern);
}

std::string case_name(const ::testing::TestParamInfo<RoundTripCase>& info) {
  std::string name = to_string(info.param.org) + "_" +
                     std::to_string(info.param.rank) + "D_" +
                     to_string(info.param.pattern);
  std::erase(name, '+');
  return name;
}

SparseDataset small_dataset(std::size_t rank, PatternKind pattern) {
  const index_t extent = rank == 2 ? 48 : rank == 3 ? 16 : 8;
  const Shape shape = Shape::uniform(rank, extent);
  PatternSpec spec;
  switch (pattern) {
    case PatternKind::kTsp:
      spec = TspConfig{2};
      break;
    case PatternKind::kGsp:
      spec = GspConfig{0.05};
      break;
    case PatternKind::kMsp:
      spec = MspConfig{0.01, 0.5};
      break;
  }
  return make_dataset(shape, spec, /*seed=*/1234);
}

class FormatRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(FormatRoundTrip, MapIsPermutation) {
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  const auto map = format->build(dataset.coords, dataset.shape);
  ASSERT_EQ(map.size(), dataset.point_count());
  EXPECT_TRUE(is_permutation_of_iota(map));
}

TEST_P(FormatRoundTrip, EveryStoredPointIsFoundAtItsSlot) {
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  const auto map = format->build(dataset.coords, dataset.shape);
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    ASSERT_EQ(format->lookup(dataset.coords.point(i)), map[i])
        << "point " << i;
  }
}

TEST_P(FormatRoundTrip, ReorganizedValuesResolveCorrectly) {
  // End-to-end value integrity: scatter values by the map, then every
  // lookup must land on the point's own value.
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  const auto map = format->build(dataset.coords, dataset.shape);
  std::vector<value_t> reorganized(dataset.values.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    reorganized[map[i]] = dataset.values[i];
  }
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    const std::size_t slot = format->lookup(dataset.coords.point(i));
    ASSERT_NE(slot, kNotFound);
    EXPECT_EQ(reorganized[slot],
              expected_value(dataset.coords.point(i), dataset.shape));
  }
}

TEST_P(FormatRoundTrip, AbsentCellsMiss) {
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);

  // Collect the occupied addresses, then probe a sample of unoccupied ones.
  std::vector<index_t> occupied = linearize_all(dataset.coords, dataset.shape);
  std::sort(occupied.begin(), occupied.end());
  std::vector<index_t> probe(dataset.shape.rank());
  std::size_t probed = 0;
  for (index_t address = 0;
       address < dataset.shape.element_count() && probed < 200;
       address += 7) {
    if (std::binary_search(occupied.begin(), occupied.end(), address)) {
      continue;
    }
    delinearize(address, dataset.shape, probe);
    EXPECT_EQ(format->lookup(probe), kNotFound)
        << "address " << address;
    ++probed;
  }
  ASSERT_GT(probed, 0u);
}

TEST_P(FormatRoundTrip, SerializationPreservesBehaviour) {
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  const auto map = format->build(dataset.coords, dataset.shape);

  const Bytes saved = serialize_format(*format);
  auto fresh = load_format(param.org, saved);
  EXPECT_EQ(fresh->kind(), param.org);
  // One declaration saves and loads: the loaded index re-saves unchanged.
  EXPECT_EQ(serialize_format(*fresh), saved);
  EXPECT_EQ(fresh->point_count(), format->point_count());
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    ASSERT_EQ(fresh->lookup(dataset.coords.point(i)), map[i]);
  }
}

TEST_P(FormatRoundTrip, BatchReadAgreesWithLookup) {
  const auto& param = GetParam();
  const SparseDataset dataset = small_dataset(param.rank, param.pattern);
  auto format = make_format(param.org);
  format->build(dataset.coords, dataset.shape);

  CoordBuffer queries(dataset.shape.rank());
  std::vector<index_t> probe(dataset.shape.rank());
  for (index_t address = 0; address < dataset.shape.element_count();
       address += 11) {
    delinearize(address, dataset.shape, probe);
    queries.append(probe);
  }
  const auto slots = format->read(queries);
  ASSERT_EQ(slots.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(slots[q], format->lookup(queries.point(q)));
  }
}

std::vector<RoundTripCase> all_cases() {
  std::vector<RoundTripCase> cases;
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

INSTANTIATE_TEST_SUITE_P(AllOrgsAllPatterns, FormatRoundTrip,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace artsparse
