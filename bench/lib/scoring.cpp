#include "lib/scoring.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace artsparse {

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kWriteTime:
      return "write-time";
    case Metric::kReadTime:
      return "read-time";
    case Metric::kFileSize:
      return "file-size";
  }
  throw FormatError("unknown Metric value");
}

double metric_value(const Measurement& m, Metric metric) {
  switch (metric) {
    case Metric::kWriteTime:
      return m.write_times.total();
    case Metric::kReadTime:
      return m.read_times.total();
    case Metric::kFileSize:
      return static_cast<double>(m.file_bytes);
  }
  throw FormatError("unknown Metric value");
}

OrgKind ScoreTable::best() const {
  detail::require(!overall.empty(), "score table is empty");
  return std::min_element(overall.begin(), overall.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

ScoreTable compute_scores(const std::vector<Measurement>& measurements) {
  detail::require(!measurements.empty(), "no measurements to score");

  // Group measurements by grid cell (workload name).
  std::map<std::string, std::vector<const Measurement*>> cells;
  for (const Measurement& m : measurements) {
    cells[m.workload].push_back(&m);
  }

  ScoreTable table;
  std::map<OrgKind, std::size_t> sample_counts;
  for (Metric metric :
       {Metric::kWriteTime, Metric::kReadTime, Metric::kFileSize}) {
    std::map<OrgKind, double> sums;
    std::map<OrgKind, std::size_t> counts;
    for (const auto& [name, cell] : cells) {
      double max_value = 0.0;
      for (const Measurement* m : cell) {
        max_value = std::max(max_value, metric_value(*m, metric));
      }
      if (max_value <= 0.0) continue;  // degenerate cell: skip
      for (const Measurement* m : cell) {
        sums[m->org] += metric_value(*m, metric) / max_value;
        ++counts[m->org];
      }
    }
    for (const auto& [org, sum] : sums) {
      table.per_metric[metric][org] =
          sum / static_cast<double>(counts[org]);
    }
  }

  // Overall: equal-weight mean across the three metrics.
  for (const auto& [metric, per_org] : table.per_metric) {
    (void)metric;
    for (const auto& [org, score] : per_org) {
      table.overall[org] += score;
      ++sample_counts[org];
    }
  }
  for (auto& [org, score] : table.overall) {
    score /= static_cast<double>(sample_counts[org]);
  }
  return table;
}

}  // namespace artsparse
