// Consolidation (compaction): many fragments -> one, with last-writer-wins
// semantics for cells written multiple times.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/linearize.hpp"
#include "core/rng.hpp"
#include "formats/registry.hpp"
#include "patterns/dataset.hpp"
#include "storage/fragment_store.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

class ConsolidateTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("consolidate"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ConsolidateTest, MergesFragmentsIntoOne) {
  const Shape shape{64, 64};
  FragmentStore store(dir_, shape);
  std::size_t total = 0;
  for (index_t base : {index_t{0}, index_t{16}, index_t{32}}) {
    CoordBuffer coords(2);
    std::vector<value_t> values;
    for (index_t i = 0; i < 10; ++i) {
      coords.append({base + i, base});
      values.push_back(expected_value(coords.point(i), shape));
    }
    store.write(coords, values, OrgKind::kCoo);
    total += 10;
  }
  EXPECT_EQ(store.fragment_count(), 3u);

  const std::uint64_t generation_before = store.generation();
  const WriteResult merged = store.consolidate(OrgKind::kGcsr);
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_EQ(merged.point_count, total);
  // Consolidation publishes exactly one new manifest generation.
  EXPECT_EQ(store.generation(), generation_before + 1);

  const ReadResult all = store.scan_region(Box::whole(shape));
  EXPECT_EQ(all.values.size(), total);
  for (std::size_t i = 0; i < all.values.size(); ++i) {
    EXPECT_EQ(all.values[i], expected_value(all.coords.point(i), shape));
  }
}

TEST_F(ConsolidateTest, LastWriterWinsOnOverlaps) {
  const Shape shape{32, 32};
  FragmentStore store(dir_, shape);
  CoordBuffer coords(2);
  coords.append({5, 5});
  coords.append({6, 6});
  const std::vector<value_t> old_values{1.0, 2.0};
  store.write(coords, old_values, OrgKind::kLinear);

  CoordBuffer update(2);
  update.append({5, 5});
  const std::vector<value_t> new_values{99.0};
  store.write(update, new_values, OrgKind::kCsf);

  store.consolidate(OrgKind::kLinear);
  const ReadResult all = store.scan_region(Box::whole(shape));
  ASSERT_EQ(all.values.size(), 2u);  // deduplicated
  EXPECT_EQ(all.values[0], 99.0);    // (5,5): latest write
  EXPECT_EQ(all.values[1], 2.0);     // (6,6): untouched
}

TEST_F(ConsolidateTest, AdvisorChoiceWhenOrgUnset) {
  const Shape shape{48, 48};
  FragmentStore store(dir_, shape);
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.05}, 7);
  store.write(dataset.coords, dataset.values, OrgKind::kCoo);
  const WriteResult merged = store.consolidate();
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_EQ(merged.point_count, dataset.point_count());
  // The advisor never keeps the COO baseline for balanced weights.
  const ReadResult all = store.scan_region(Box::whole(shape));
  EXPECT_EQ(all.values.size(), dataset.point_count());
}

TEST_F(ConsolidateTest, EmptyStoreConsolidatesToEmptyFragment) {
  FragmentStore store(dir_, Shape{16, 16});
  const WriteResult merged = store.consolidate();
  EXPECT_EQ(merged.point_count, 0u);
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_TRUE(store.scan_region(Box::whole(Shape{16, 16})).values.empty());
}

TEST_F(ConsolidateTest, SurvivesReopen) {
  const Shape shape{32, 32};
  {
    FragmentStore store(dir_, shape);
    CoordBuffer coords(2);
    coords.append({3, 4});
    const std::vector<value_t> values{expected_value(coords.point(0), shape)};
    store.write(coords, values, OrgKind::kGcsc);
    store.consolidate(OrgKind::kCsf);
  }
  FragmentStore reopened(dir_, shape);
  EXPECT_EQ(reopened.fragment_count(), 1u);
  const ReadResult all = reopened.scan_region(Box::whole(shape));
  ASSERT_EQ(all.values.size(), 1u);
  EXPECT_EQ(all.values[0], expected_value(all.coords.point(0), shape));
}

TEST_F(ConsolidateTest, AllOrgsLatestWriterMatchesReference) {
  // 40 fragments (past Manifest::kRtreeThreshold) cycling through every
  // org, each writing random cells of a small tensor, so most cells are
  // written several times. The reference keeps each cell's latest write.
  const Shape shape{12, 12, 6};
  const std::vector<OrgKind> orgs = all_org_kinds();
  for (const OrgKind target : orgs) {
    SCOPED_TRACE(to_string(target));
    const std::filesystem::path dir = dir_ / to_string(target);
    FragmentStore store(dir, shape);
    std::map<index_t, value_t> latest;
    Xoshiro256 rng(17);
    for (std::size_t f = 0; f < 40; ++f) {
      CoordBuffer coords(3);
      std::vector<value_t> values;
      std::set<index_t> taken;  // one write per cell within a fragment
      for (std::size_t k = 0; k < 60; ++k) {
        const std::vector<index_t> cell = {
            static_cast<index_t>(rng.next_below(12)),
            static_cast<index_t>(rng.next_below(12)),
            static_cast<index_t>(rng.next_below(6))};
        const index_t address = linearize(cell, shape);
        if (!taken.insert(address).second) continue;
        const value_t value = static_cast<value_t>(f * 1000 + k);
        coords.append(cell);
        values.push_back(value);
        latest[address] = value;
      }
      store.write(coords, values, orgs[f % orgs.size()]);
    }
    ASSERT_GE(store.fragment_count(), Manifest::kRtreeThreshold);

    const WriteResult merged = store.consolidate(target);
    EXPECT_EQ(store.fragment_count(), 1u);
    EXPECT_EQ(merged.point_count, latest.size());
    const ReadResult all = store.scan_region(Box::whole(shape));
    ASSERT_EQ(all.values.size(), latest.size());
    std::size_t i = 0;
    for (const auto& [address, value] : latest) {
      EXPECT_EQ(linearize(all.coords.point(i), shape), address) << i;
      EXPECT_EQ(all.values[i], value) << i;
      ++i;
    }
  }
}

}  // namespace
}  // namespace artsparse
