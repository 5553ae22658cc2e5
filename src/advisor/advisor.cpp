#include "advisor/advisor.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace artsparse {

namespace {

/// Table I evaluated at the profiled parameters. Costs are in "operation"
/// units — only ratios matter.
CostEstimate estimate(OrgKind org, const SparsityProfile& profile,
                      double queries) {
  const auto n = static_cast<double>(profile.point_count);
  const auto d = static_cast<double>(std::max<std::size_t>(1, profile.rank));
  const double min_m =
      static_cast<double>(std::max<index_t>(1, profile.min_extent));
  const double log_n = n > 1 ? std::log2(n) : 1.0;

  CostEstimate e;
  e.org = org;
  switch (org) {
    case OrgKind::kCoo:
      e.build_cost = 1.0;             // O(1): buffer as-is
      e.read_cost = n * queries;      // full scan per query
      e.space_words = n * d;
      e.rationale = "no build work, but O(n) scan per read and d words/point";
      break;
    case OrgKind::kLinear:
      e.build_cost = n * d;           // linearize every coordinate
      e.read_cost = n * queries;      // still an unsorted scan
      e.space_words = n;
      e.rationale = "cheap build, 1 word/point; reads scan like COO";
      break;
    case OrgKind::kGcsr:
      e.build_cost = n * log_n + 2.0 * n;
      e.read_cost = queries * (n / min_m) + n;
      e.space_words = n + min_m;
      e.rationale = "sorted 2-D mapping: row-bounded reads, ~1 word/point";
      break;
    case OrgKind::kGcsc:
      // Same bounds as GCSR++, but building from row-major input pays a
      // layout-mismatch penalty (Table III): model it as a constant factor
      // on the sort+reorg work.
      e.build_cost = 1.5 * (n * log_n + 2.0 * n);
      e.read_cost = queries * (n / min_m) + n;
      e.space_words = n + min_m;
      e.rationale =
          "as GCSR++, but column sort fights row-major input layout";
      break;
    case OrgKind::kCsf:
      e.build_cost = n * log_n + n * d;
      e.read_cost = queries * d * log_n;  // root-to-leaf binary searches
      e.space_words = profile.csf_level_nodes.empty()
                          ? n * d
                          : static_cast<double>(profile.csf_index_words());
      e.rationale = "tree descent reads; space tracks prefix sharing";
      break;
    case OrgKind::kSortedCoo:
    case OrgKind::kBcsr:
      // Extensions: recommend_organization ranks only kPaperOrgs.
      break;
  }
  return e;
}

}  // namespace

Recommendation recommend_organization(const SparsityProfile& profile,
                                      const WorkloadWeights& weights,
                                      double queries_per_write) {
  detail::require(profile.point_count > 0,
                  "cannot recommend an organization for an empty tensor");
  detail::require(weights.write >= 0 && weights.read >= 0 &&
                      weights.space >= 0 &&
                      weights.write + weights.read + weights.space > 0,
                  "weights must be non-negative and not all zero");

  const double queries =
      std::max(1.0, queries_per_write * static_cast<double>(
                                            profile.point_count));

  Recommendation rec;
  for (OrgKind org : kPaperOrgs) {
    rec.ranking.push_back(estimate(org, profile, queries));
  }

  // Normalize each metric by its maximum across organizations (Table IV's
  // r_i construction), then combine with the caller's weights.
  double max_build = 0.0;
  double max_read = 0.0;
  double max_space = 0.0;
  for (const CostEstimate& e : rec.ranking) {
    max_build = std::max(max_build, e.build_cost);
    max_read = std::max(max_read, e.read_cost);
    max_space = std::max(max_space, e.space_words);
  }
  const double weight_sum = weights.write + weights.read + weights.space;
  for (CostEstimate& e : rec.ranking) {
    const double build_r = max_build > 0 ? e.build_cost / max_build : 0;
    const double read_r = max_read > 0 ? e.read_cost / max_read : 0;
    const double space_r = max_space > 0 ? e.space_words / max_space : 0;
    e.weighted_score = (weights.write * build_r + weights.read * read_r +
                        weights.space * space_r) /
                       weight_sum;
  }

  std::stable_sort(rec.ranking.begin(), rec.ranking.end(),
                   [](const CostEstimate& a, const CostEstimate& b) {
                     return a.weighted_score < b.weighted_score;
                   });
  return rec;
}

OrgKind choose_organization(std::optional<OrgKind> org,
                            const CoordBuffer& coords, const Shape& shape) {
  if (org.has_value()) return *org;
  if (coords.empty()) return OrgKind::kLinear;  // any compact default
  return recommend_organization(profile_sparsity(coords, shape),
                                WorkloadWeights::balanced())
      .best()
      .org;
}

}  // namespace artsparse
