// Automatic organization selection (the paper's future work, Section VI).
//
// The advisor turns Table I's complexity formulas into a concrete cost
// model: for a profiled dataset and a caller-supplied workload weighting
// (how much write time, read time, and storage each matter), it estimates
// every organization's cost, normalizes per metric, and recommends the
// lowest weighted total — the same normalize-and-average construction as
// Table IV's score, but predicted instead of measured.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "advisor/profile.hpp"
#include "core/types.hpp"

namespace artsparse {

/// Relative importance of the three metrics; need not be normalized.
struct WorkloadWeights {
  double write = 1.0;
  double read = 1.0;
  double space = 1.0;

  /// Matches the paper's evaluation: everything equally weighted.
  static WorkloadWeights balanced() { return {}; }
  /// Write-once archive: storage dominates.
  static WorkloadWeights archival() { return {0.5, 0.5, 2.0}; }
  /// Query-heavy analytics: reads dominate.
  static WorkloadWeights read_mostly() { return {0.5, 2.0, 0.5}; }
};

/// One organization's predicted costs (arbitrary units; comparable across
/// organizations, not across datasets).
struct CostEstimate {
  OrgKind org = OrgKind::kCoo;
  double build_cost = 0.0;   ///< Table I build column evaluated at n, d
  double read_cost = 0.0;    ///< Table I read column per query batch
  double space_words = 0.0;  ///< index words
  double weighted_score = 0.0;
  std::string rationale;
};

/// Ranked recommendation (best first).
struct Recommendation {
  std::vector<CostEstimate> ranking;
  const CostEstimate& best() const { return ranking.front(); }
};

/// Recommends an organization for data matching `profile`, assuming
/// `queries_per_write` point lookups per written point batch.
Recommendation recommend_organization(const SparsityProfile& profile,
                                      const WorkloadWeights& weights,
                                      double queries_per_write = 1.0);

/// The organization a store writes `coords` in: `org` when given, else the
/// balanced recommendation for these coordinates' own profile, or LINEAR
/// when there are none to profile. Consolidation and the tiled write both
/// decide through this.
OrgKind choose_organization(std::optional<OrgKind> org,
                            const CoordBuffer& coords, const Shape& shape);

}  // namespace artsparse
