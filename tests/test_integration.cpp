// End-to-end scenarios across modules: multi-fragment stores mixing
// organizations, all organizations returning identical query results on the
// same data, compressed + throttled pipelines, and a small advisor loop.
#include <gtest/gtest.h>

#include "artsparse.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

class Integration : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("integration"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(Integration, AllOrganizationsReturnIdenticalReads) {
  const Shape shape{64, 64, 64};
  const SparseDataset dataset = make_dataset(shape, MspConfig{0.005, 0.3}, 3);
  const Box region({16, 16, 16}, {47, 47, 47});

  std::vector<value_t> reference;
  for (OrgKind org : kPaperOrgs) {
    FragmentStore store(dir_ / to_string(org), shape);
    store.write(dataset.coords, dataset.values, org);
    const ReadResult result = store.read_region(region);
    if (reference.empty()) {
      reference = result.values;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(result.values, reference) << to_string(org);
    }
  }
}

TEST_F(Integration, MixedOrganizationFragmentsInOneStore) {
  // A store whose fragments were written with different organizations (an
  // append-heavy workflow switching formats over time) must still answer
  // queries transparently.
  const Shape shape{128, 128};
  FragmentStore store(dir_, shape);

  std::vector<OrgKind> orgs(kPaperOrgs, kPaperOrgs + 5);
  std::size_t total_points = 0;
  for (std::size_t batch = 0; batch < orgs.size(); ++batch) {
    CoordBuffer coords(2);
    std::vector<value_t> values;
    // Disjoint row bands per batch.
    for (index_t r = batch * 16; r < batch * 16 + 8; ++r) {
      for (index_t c = 0; c < 32; c += 3) {
        coords.append({r, c});
        values.push_back(expected_value(coords.point(coords.size() - 1),
                                        shape));
      }
    }
    total_points += coords.size();
    store.write(coords, values, orgs[batch]);
  }
  EXPECT_EQ(store.fragment_count(), 5u);

  const ReadResult all = store.read_region(Box({0, 0}, {127, 127}));
  EXPECT_EQ(all.values.size(), total_points);
  for (std::size_t i = 0; i < all.values.size(); ++i) {
    EXPECT_EQ(all.values[i], expected_value(all.coords.point(i), shape));
  }
}

TEST_F(Integration, CompressedThrottledPipeline) {
  const Shape shape{96, 96};
  const SparseDataset dataset = make_dataset(shape, TspConfig{5}, 1);
  FragmentStore store(dir_, shape, DeviceModel{500e6, 50e-6},
                      CodecKind::kDeltaVarint);
  store.write(dataset.coords, dataset.values, OrgKind::kLinear);

  const Box region({40, 40}, {70, 70});
  const ReadResult result = store.read_region(region);
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    EXPECT_EQ(result.values[i], expected_value(result.coords.point(i), shape));
  }
  EXPECT_GT(result.values.size(), 0u);
}

TEST_F(Integration, AdvisorPickVerifiesEndToEnd) {
  const Shape shape{64, 64, 64};
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.01}, 9);
  const SparsityProfile profile =
      profile_sparsity(dataset.coords, dataset.shape);
  const Recommendation rec =
      recommend_organization(profile, WorkloadWeights::read_mostly());

  FragmentStore store(dir_, shape);
  store.write(dataset.coords, dataset.values, rec.best().org);
  const ReadResult result = store.read_region(Box({32, 32, 32}, {38, 38, 38}));
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    EXPECT_EQ(result.values[i], expected_value(result.coords.point(i), shape));
  }
}

TEST_F(Integration, FragmentFilesSurviveProcessBoundarySimulation) {
  // Write with one store instance, drop it, reopen from the directory only
  // (what a separate analysis process would do), and query.
  const Shape shape{64, 64};
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.05}, 21);
  {
    FragmentStore writer(dir_, shape, DeviceModel::unthrottled(),
                         CodecKind::kVarint);
    writer.write(dataset.coords, dataset.values, OrgKind::kCsf);
  }
  FragmentStore reader(dir_, shape);
  const ReadResult result = reader.read_region(Box({0, 0}, {63, 63}));
  EXPECT_EQ(result.values.size(), dataset.point_count());
}

}  // namespace
}  // namespace artsparse
