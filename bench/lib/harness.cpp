#include "lib/harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "core/error.hpp"
#include "core/linearize.hpp"
#include "obs/metrics.hpp"

namespace artsparse {

namespace {

/// Unique per-process run directories so concurrent harness runs (and
/// leftover crashes) never collide.
std::filesystem::path fresh_run_dir(const std::filesystem::path& base) {
  static std::atomic<std::uint64_t> counter{0};
  const auto id = counter.fetch_add(1);
  return base / ("artsparse_run_" + std::to_string(::getpid()) + "_" +
                 std::to_string(id));
}

/// Brute-force ground truth: the dataset points inside `region`, as
/// (linear address -> value) in ascending address order.
std::vector<std::pair<index_t, value_t>> expected_hits(
    const SparseDataset& dataset, const Box& region) {
  std::vector<std::pair<index_t, value_t>> hits;
  for (std::size_t i = 0; i < dataset.coords.size(); ++i) {
    const auto p = dataset.coords.point(i);
    if (region.contains(p)) {
      hits.emplace_back(linearize(p, dataset.shape), dataset.values[i]);
    }
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

bool verify_read(const SparseDataset& dataset, const Box& region,
                 const ReadResult& result) {
  const auto expected = expected_hits(dataset, region);
  if (expected.size() != result.values.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const index_t address =
        linearize(result.coords.point(i), dataset.shape);
    if (address != expected[i].first ||
        result.values[i] != expected[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

Measurement run_dataset(const SparseDataset& dataset, const Box& read_region,
                        const std::string& workload_name, OrgKind org,
                        const HarnessOptions& options) {
  Measurement m;
  m.workload = workload_name;
  m.rank = dataset.shape.rank();
  m.pattern = dataset.pattern;
  m.org = org;
  m.point_count = dataset.point_count();
  m.query_count = static_cast<std::size_t>(read_region.cell_count());

  const std::filesystem::path dir = fresh_run_dir(options.work_dir);
  const int repeats = std::max(1, options.repeats);
  {
    FragmentStore store(dir, dataset.shape, options.device, options.codec);
    // Best-of-N: rewrite from scratch each round, keep the fastest total.
    for (int round = 0; round < repeats; ++round) {
      store.clear();
      const WriteResult write =
          store.write(dataset.coords, dataset.values, org);
      if (round == 0 || write.times.total() < m.write_times.total()) {
        m.write_times = write.times;
      }
      m.file_bytes = write.file_bytes;
      m.index_bytes = write.index_bytes;
    }

    ReadResult read = store.read_region(read_region);
    m.read_times = read.times;
    for (int round = 1; round < repeats; ++round) {
      ReadResult again = store.read_region(read_region);
      if (again.times.total() < m.read_times.total()) {
        m.read_times = again.times;
      }
    }
    m.found_count = read.values.size();
    m.cache = store.cache().stats();

    ARTSPARSE_OBSERVE_L("artsparse_bench_write_ns", "org", to_string(org),
                        m.write_times.total() * 1e9);
    ARTSPARSE_OBSERVE_L("artsparse_bench_read_ns", "org", to_string(org),
                        m.read_times.total() * 1e9);

    m.verified = !options.verify || verify_read(dataset, read_region, read);
    store.clear();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return m;
}

Measurement run_workload(const Workload& workload, OrgKind org,
                         const HarnessOptions& options) {
  const SparseDataset dataset =
      make_dataset(workload.shape, workload.spec, workload.seed);
  return run_dataset(dataset, workload.read_region(), workload.name, org,
                     options);
}

std::vector<Measurement> run_grid(
    const std::vector<Workload>& workloads, const std::vector<OrgKind>& orgs,
    const HarnessOptions& options,
    const std::function<void(const Measurement&)>& progress) {
  std::vector<Measurement> measurements;
  measurements.reserve(workloads.size() * orgs.size());
  for (const Workload& workload : workloads) {
    // Generate once, measure every organization against the same data.
    const SparseDataset dataset =
        make_dataset(workload.shape, workload.spec, workload.seed);
    const Box region = workload.read_region();
    for (OrgKind org : orgs) {
      measurements.push_back(
          run_dataset(dataset, region, workload.name, org, options));
      if (progress) progress(measurements.back());
    }
  }
  return measurements;
}

ScaleKind scale_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale=paper") == 0) {
      return ScaleKind::kPaper;
    }
    if (std::strcmp(argv[i], "--scale=small") == 0) {
      return ScaleKind::kSmall;
    }
  }
  return ScaleKind::kSmall;
}

}  // namespace artsparse
