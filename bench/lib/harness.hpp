// The measurement harness: runs Algorithm 3's WRITE and READ for one
// (workload, organization) pair through a FragmentStore and records every
// quantity the paper's tables and figures report.
#pragma once

#include <filesystem>
#include <functional>
#include <vector>

#include "patterns/workload.hpp"
#include "storage/fragment_store.hpp"

namespace artsparse {

/// One grid cell's measurements.
struct Measurement {
  std::string workload;  ///< e.g. "2D-TSP"
  std::size_t rank = 0;
  PatternKind pattern = PatternKind::kGsp;
  OrgKind org = OrgKind::kCoo;

  std::size_t point_count = 0;     ///< n
  std::size_t query_count = 0;     ///< n_read (cells in the read region)
  std::size_t found_count = 0;     ///< points actually present in the region

  WriteBreakdown write_times;      ///< Table III / Fig. 3
  ReadBreakdown read_times;        ///< Fig. 5
  std::size_t file_bytes = 0;      ///< Fig. 4
  std::size_t index_bytes = 0;

  /// Open-fragment cache counters for this run's store, sampled after the
  /// measured reads (before the store is cleared).
  CacheStats cache;

  bool verified = false;  ///< read results matched the dataset exactly
};

struct HarnessOptions {
  /// Directory for fragment files; each run uses a fresh subdirectory that
  /// is removed afterwards.
  std::filesystem::path work_dir = std::filesystem::temp_directory_path();
  /// Storage model; the Lustre-like throttle reproduces the paper's
  /// bandwidth-bound write regime (DESIGN.md Section 5).
  DeviceModel device = DeviceModel::lustre_like();
  CodecKind codec = CodecKind::kIdentity;
  /// Cross-check every read against the self-verifying dataset values.
  bool verify = true;
  /// Measurement repetitions; the fastest write and read are kept (the
  /// standard best-of-N guard against scheduler noise). 1 = single shot.
  int repeats = 1;
};

/// Runs WRITE + region READ for one organization over one workload.
Measurement run_workload(const Workload& workload, OrgKind org,
                         const HarnessOptions& options);

/// Reuses an already-generated dataset (grid runs generate each dataset
/// once and measure all organizations against it).
Measurement run_dataset(const SparseDataset& dataset, const Box& read_region,
                        const std::string& workload_name, OrgKind org,
                        const HarnessOptions& options);

/// Full sweep: every workload x every organization. `progress` (optional)
/// is invoked after each measurement.
std::vector<Measurement> run_grid(
    const std::vector<Workload>& workloads, const std::vector<OrgKind>& orgs,
    const HarnessOptions& options,
    const std::function<void(const Measurement&)>& progress = {});

/// Parses "--scale=paper|small" style arguments for the bench binaries;
/// returns kSmall when absent.
ScaleKind scale_from_args(int argc, char** argv);

}  // namespace artsparse
