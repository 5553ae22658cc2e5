// Shared plumbing for the table/figure bench binaries: grid execution with
// progress output and CSV emission next to the binary.
#pragma once

#include <cstdio>
#include <filesystem>
#include <vector>

#include "artsparse.hpp"
#include "lib/harness.hpp"
#include "lib/report.hpp"
#include "lib/scoring.hpp"

namespace artsparse::bench {

inline HarnessOptions default_options() {
  HarnessOptions options;
  options.work_dir = std::filesystem::temp_directory_path();
  options.device = DeviceModel::lustre_like();
  options.verify = true;
  options.repeats = 2;  // best-of-2 damps scheduler noise
  return options;
}

/// Runs the full paper grid (every workload x the paper's five
/// organizations) with progress lines on stderr.
inline std::vector<Measurement> run_paper_grid(ScaleKind scale) {
  const auto workloads = paper_grid(scale);
  const std::vector<OrgKind> orgs(kPaperOrgs, kPaperOrgs + 5);
  return run_grid(workloads, orgs, default_options(),
                  [](const Measurement& m) {
                    std::fprintf(stderr,
                                 "  [%s %s] write %.4fs read %.4fs "
                                 "file %zu B cache %zu/%zu%s\n",
                                 m.workload.c_str(),
                                 to_string(m.org).c_str(),
                                 m.write_times.total(),
                                 m.read_times.total(), m.file_bytes,
                                 m.read_times.cache_hits,
                                 m.read_times.cache_misses,
                                 m.verified ? "" : "  **VERIFY FAILED**");
                  });
}

/// Writes the table's CSV into ./bench_results/<name>.csv (best effort).
inline void emit_csv(const TextTable& table, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;
  try {
    table.write_csv(std::filesystem::path("bench_results") / (name + ".csv"));
    std::printf("(CSV written to bench_results/%s.csv)\n", name.c_str());
  } catch (const Error&) {
    // CSV emission is a convenience; the table already went to stdout.
  }
}

/// Writes the measurements as ./bench_results/<name>.json (best effort):
/// the full per-run record including retry/backoff and cache counters that
/// the CSV's fixed columns elide.
inline void emit_json(const std::vector<Measurement>& measurements,
                      const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) return;
  try {
    write_json_report(
        std::filesystem::path("bench_results") / (name + ".json"),
        measurements);
    std::printf("(JSON written to bench_results/%s.json)\n", name.c_str());
  } catch (const Error&) {
    // JSON emission is a convenience; the table already went to stdout.
  }
}

/// True when any measurement failed verification (non-zero exit for CI).
inline bool any_unverified(const std::vector<Measurement>& measurements) {
  for (const Measurement& m : measurements) {
    if (!m.verified) return true;
  }
  return false;
}

}  // namespace artsparse::bench
