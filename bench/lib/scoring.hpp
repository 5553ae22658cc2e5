// Table IV's overall score: each metric (write time, read time, file size)
// is normalized per grid cell by the maximum across organizations
// (r_i = m_i / max_j m_j, lower is better), then averaged with equal
// weights over dimensions, patterns, and finally metrics.
#pragma once

#include <map>
#include <vector>

#include "lib/harness.hpp"

namespace artsparse {

enum class Metric : std::uint8_t {
  kWriteTime = 0,
  kReadTime = 1,
  kFileSize = 2,
};

std::string to_string(Metric metric);

/// Scores per organization, overall and per metric.
struct ScoreTable {
  /// Overall score (Table IV); lower is better.
  std::map<OrgKind, double> overall;
  /// Per-metric breakdown (average normalized value per metric).
  std::map<Metric, std::map<OrgKind, double>> per_metric;

  /// Organization with the lowest overall score.
  OrgKind best() const;
};

/// Computes Table IV from a full grid of measurements. Every (workload,
/// org) cell must appear exactly once; all organizations must cover the
/// same workload set.
ScoreTable compute_scores(const std::vector<Measurement>& measurements);

/// The raw metric value of one measurement.
double metric_value(const Measurement& m, Metric metric);

}  // namespace artsparse
