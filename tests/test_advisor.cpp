#include "advisor/advisor.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "patterns/dataset.hpp"

namespace artsparse {
namespace {

// ---------- profiling ----------

TEST(Profile, BasicCounts) {
  CoordBuffer coords(2);
  coords.append({0, 0});
  coords.append({0, 1});
  coords.append({3, 3});
  const SparsityProfile profile = profile_sparsity(coords, Shape{4, 4});
  EXPECT_EQ(profile.point_count, 3u);
  EXPECT_EQ(profile.rank, 2u);
  EXPECT_NEAR(profile.density, 3.0 / 16.0, 1e-12);
}

TEST(Profile, CsfLevelNodesMatchTree) {
  // Two shared roots: {0: [0, 1], 3: [3]} -> levels (2, 3).
  CoordBuffer coords(2);
  coords.append({0, 0});
  coords.append({0, 1});
  coords.append({3, 3});
  const SparsityProfile profile = profile_sparsity(coords, Shape{4, 4});
  EXPECT_EQ(profile.csf_level_nodes,
            (std::vector<std::size_t>{2, 3}));
}

TEST(Profile, DiagonalDataIsBanded) {
  CoordBuffer coords(2);
  for (index_t i = 0; i < 32; ++i) coords.append({i, i});
  const SparsityProfile profile = profile_sparsity(coords, Shape{32, 32});
  EXPECT_DOUBLE_EQ(profile.banded_fraction, 1.0);
}

TEST(Profile, ScatteredCornersAreNotBanded) {
  CoordBuffer coords(2);
  coords.append({0, 31});
  coords.append({31, 0});
  const SparsityProfile profile = profile_sparsity(coords, Shape{32, 32});
  EXPECT_DOUBLE_EQ(profile.banded_fraction, 0.0);
}

TEST(Profile, ClusteredDataDetected) {
  // Everything in one tiny corner block.
  CoordBuffer coords(2);
  for (index_t r = 0; r < 4; ++r) {
    for (index_t c = 0; c < 4; ++c) {
      coords.append({r, c});
    }
  }
  const SparsityProfile profile = profile_sparsity(coords, Shape{64, 64});
  EXPECT_DOUBLE_EQ(profile.cluster_fraction, 1.0);
}

TEST(Profile, EmptyInput) {
  const SparsityProfile profile =
      profile_sparsity(CoordBuffer(2), Shape{8, 8});
  EXPECT_EQ(profile.point_count, 0u);
  EXPECT_TRUE(profile.csf_level_nodes.empty());
}

TEST(Profile, CsfIndexWordsFormula) {
  SparsityProfile profile;
  profile.csf_level_nodes = {2, 4, 5};
  // levels(3) + fids(2+4+5) + fptr((2+1) + (4+1)) = 22
  EXPECT_EQ(profile.csf_index_words(), 22u);
}

TEST(Profile, ToStringMentionsKeyFields) {
  CoordBuffer coords(2);
  coords.append({1, 1});
  const SparsityProfile profile = profile_sparsity(coords, Shape{4, 4});
  const std::string s = profile.to_string();
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

// ---------- recommendation ----------

SparsityProfile sample_profile(std::size_t n = 100000) {
  const Shape shape{256, 256, 256};
  const SparseDataset dataset =
      make_dataset(shape, GspConfig{static_cast<double>(n) /
                                    static_cast<double>(shape.element_count())},
                   17);
  return profile_sparsity(dataset.coords, shape);
}

TEST(Advisor, RankingCoversPaperOrganizations) {
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::balanced());
  EXPECT_EQ(rec.ranking.size(), 5u);
  for (std::size_t i = 1; i < rec.ranking.size(); ++i) {
    EXPECT_LE(rec.ranking[i - 1].weighted_score,
              rec.ranking[i].weighted_score);
  }
}

TEST(Advisor, ReadHeavyNeverPicksScanFormats) {
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::read_mostly());
  EXPECT_NE(rec.best().org, OrgKind::kCoo);
  EXPECT_NE(rec.best().org, OrgKind::kLinear);
}

TEST(Advisor, SpaceHeavyAvoidsCoo) {
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::archival());
  EXPECT_NE(rec.best().org, OrgKind::kCoo);
}

TEST(Advisor, BalancedMatchesPaperFindingLinearOrGcsr) {
  // Table IV: LINEAR wins with GCSR++ a close second.
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::balanced(),
      /*queries_per_write=*/0.001);
  const OrgKind best = rec.best().org;
  EXPECT_TRUE(best == OrgKind::kLinear || best == OrgKind::kGcsr)
      << to_string(best);
}

TEST(Advisor, RationaleIsNonEmpty) {
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::balanced());
  for (const CostEstimate& e : rec.ranking) {
    EXPECT_FALSE(e.rationale.empty()) << to_string(e.org);
  }
}

TEST(Advisor, EmptyProfileRejected) {
  SparsityProfile empty;
  EXPECT_THROW(
      recommend_organization(empty, WorkloadWeights::balanced()),
      FormatError);
}

TEST(Advisor, ZeroWeightsRejected) {
  EXPECT_THROW(
      recommend_organization(sample_profile(), WorkloadWeights{0, 0, 0}),
      FormatError);
}

TEST(Advisor, ChooseOrganizationTakesTheGivenOrgElseTheBalancedPick) {
  const Shape shape{64, 64};
  const SparseDataset dataset = make_dataset(shape, GspConfig{0.05}, 7);
  EXPECT_EQ(choose_organization(OrgKind::kCsf, dataset.coords, shape),
            OrgKind::kCsf);
  EXPECT_EQ(choose_organization(std::nullopt, dataset.coords, shape),
            recommend_organization(profile_sparsity(dataset.coords, shape),
                                   WorkloadWeights::balanced())
                .best()
                .org);
  // Nothing to profile: a compact default instead of the advisor's throw.
  EXPECT_EQ(choose_organization(std::nullopt, CoordBuffer(2), shape),
            OrgKind::kLinear);
  EXPECT_EQ(choose_organization(OrgKind::kCoo, CoordBuffer(2), shape),
            OrgKind::kCoo);
}

TEST(Advisor, ScoresAreNormalized) {
  const Recommendation rec = recommend_organization(
      sample_profile(), WorkloadWeights::balanced());
  for (const CostEstimate& e : rec.ranking) {
    EXPECT_GT(e.weighted_score, 0.0);
    EXPECT_LE(e.weighted_score, 1.0);
  }
}

}  // namespace
}  // namespace artsparse
