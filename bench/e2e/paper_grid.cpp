// paper_grid: the paper's own experiment at Table II's small scale. The
// nine datasets (1024^2, 128^3, 48^4 x TSP/GSP/MSP) are generated once in
// set-up; every pass then writes each dataset as one fragment per paper
// organization into a cleared store, scans the paper's read region
// kScanReps times, and point-reads it (Algorithm 3's existence queries)
// for every organization but COO, whose O(n * n_read) read costs ~10 s a
// pass by design. One client, closed loop.
//
// With one fragment per store the read fan-out runs inline and the cache
// and service layers do almost nothing, so this is the workload where a
// fan-out, thread-pool or batcher change must show no change.
#include <cstdio>
#include <memory>

#include "harness.hpp"

namespace artsparse::e2e {

namespace {

/// Scans per cell and pass (the R of the scan sum).
constexpr int kScanReps = 3;

struct Dataset {
  SparseDataset data;
  Box region;
  CoordBuffer region_cells;  ///< read_region's queries, for its replay
  std::vector<std::pair<index_t, value_t>> expected;  ///< points in region
};

std::vector<Dataset> generate(std::uint64_t seed) {
  std::vector<Dataset> datasets;
  for (const Workload& workload : paper_grid(ScaleKind::kSmall, seed)) {
    Dataset d;
    d.data = make_dataset(workload.shape, workload.spec, workload.seed);
    d.region = workload.read_region();
    d.region_cells = CoordBuffer(workload.shape.rank());
    enumerate_cells(d.region, d.region_cells);
    for (std::size_t i = 0; i < d.data.coords.size(); ++i) {
      const auto point = d.data.coords.point(i);
      if (d.region.contains(point)) {
        d.expected.emplace_back(linearize(point, workload.shape),
                                d.data.values[i]);
      }
    }
    std::sort(d.expected.begin(), d.expected.end());
    datasets.push_back(std::move(d));
  }
  return datasets;
}

/// One store per dataset, sharing one cache.
struct Grid {
  std::shared_ptr<FragmentCache> cache;
  std::vector<std::unique_ptr<FragmentStore>> stores;
};

Grid open_grid(const std::filesystem::path& dir,
               const std::vector<Dataset>& datasets) {
  Grid grid;
  grid.cache =
      std::make_shared<FragmentCache>(FragmentCache::kDefaultBudgetBytes);
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    grid.stores.push_back(std::make_unique<FragmentStore>(
        dir / ("dataset_" + std::to_string(d)), datasets[d].data.shape,
        DeviceModel::unthrottled(), CodecKind::kIdentity, grid.cache));
  }
  return grid;
}

/// Warm-up: one write and one scan per dataset, so the first timed pass
/// does not pay first-touch costs the later ones skip.
void warm_up(Grid& grid, const std::vector<Dataset>& datasets) {
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    FragmentStore& store = *grid.stores[d];
    store.clear();
    store.write(datasets[d].data.coords, datasets[d].data.values,
                OrgKind::kGcsr);
    store.scan_region(datasets[d].region);
  }
}

struct PhaseResult {
  ReadTally scans;
  ReadTally reads;
  WriteTally writes;
  Samples pass_write_s, pass_scan_s, pass_read_s;
  double elapsed = 0.0;
  std::uint64_t evictions = 0;
  double max_open_bytes = 0.0;
  Outcome outcome;
};

PhaseResult run_passes(const std::vector<Dataset>& datasets, Grid& grid,
                       const Phase& phase, bool smoke,
                       ShadowAdmission& shadow) {
  PhaseResult r;
  const CacheStats before = grid.cache->stats();
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::uint64_t op = 0;

  // One timed read op: latency, check against the dataset, span, and
  // every kReplayEvery-th op a layer replay on the same snapshot.
  auto read_op = [&](ReadTally& tally, double& pass_sum, const char* name,
                     const Dataset& ds, const FragmentStore& store,
                     bool point_read) {
    const std::uint64_t id = op++;
    ++r.outcome.attempted;
    try {
      const Snapshot snapshot = store.snapshot();
      const Clock::time_point t0 = Clock::now();
      const ReadResult result = point_read ? snapshot.read_region(ds.region)
                                           : snapshot.scan_region(ds.region);
      const Clock::time_point t1 = Clock::now();
      tally.add(result, seconds_between(t0, t1));
      pass_sum += seconds_between(t0, t1);
      const std::string error =
          check_exact(result, ds.data.shape, ds.expected);
      if (!error.empty()) r.outcome.mismatch(error);
      if (!phase.traced()) return;
      phase.spans->record(0, name, t0, t1, id);
      phase.spans->record_breakdown(0, t0, result.times, id);
      if (!phase.replay_due(id)) return;
      const bool same =
          point_read
              ? replay_read(snapshot, ds.region_cells, result, shadow,
                            *phase.profile, phase.spans, 0, id)
              : replay_scan(snapshot, ds.region, ValueRange{}, result, shadow,
                            *phase.profile, phase.spans, 0, id);
      if (!same) r.outcome.mismatch("replay differs from the op's result");
    } catch (const std::exception& e) {
      r.outcome.error(e.what());
    }
  };

  bool done = false;
  while (!done) {
    double write_s = 0.0, scan_s = 0.0, read_s = 0.0;
    for (std::size_t d = 0; d < datasets.size() && !done; ++d) {
      const Dataset& ds = datasets[d];
      FragmentStore& store = *grid.stores[d];
      for (OrgKind org : kPaperOrgs) {
        store.clear();
        ++r.outcome.attempted;
        const std::uint64_t id = op++;
        try {
          const Clock::time_point t0 = Clock::now();
          const WriteResult w =
              store.write(ds.data.coords, ds.data.values, org);
          const Clock::time_point t1 = Clock::now();
          r.writes.add(w, seconds_between(t0, t1), org);
          write_s += seconds_between(t0, t1);
          if (phase.traced()) phase.spans->record(0, "op.write", t0, t1, id);
        } catch (const std::exception& e) {
          r.outcome.error(e.what());
          continue;
        }
        for (int rep = 0; rep < kScanReps; ++rep) {
          read_op(r.scans, scan_s, "op.scan_region", ds, store, false);
        }
        if (org != OrgKind::kCoo) {
          read_op(r.reads, read_s, "op.read_region", ds, store, true);
        }
        r.max_open_bytes = std::max(
            r.max_open_bytes,
            static_cast<double>(grid.cache->stats().open_bytes));
        if (smoke && elapsed() >= phase.seconds) {
          done = true;
          break;
        }
      }
    }
    r.pass_write_s.add(write_s);
    r.pass_scan_s.add(scan_s);
    r.pass_read_s.add(read_s);
    done = done || elapsed() >= phase.seconds;
  }
  r.elapsed = elapsed();
  r.evictions = grid.cache->stats().evictions - before.evictions;
  return r;
}

}  // namespace

RunRecord run_paper_grid(const Options& options) {
  RunRecord record;
  record.workload = options.workload;
  const std::filesystem::path dir = options.work_dir / options.workload;

  Samples setup_s;
  std::vector<Dataset> datasets;
  Grid grid;
  for (int rep = 0; rep < setup_repetitions(options); ++rep) {
    grid = Grid{};
    datasets.clear();
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    datasets = generate(options.seed);
    grid = open_grid(dir, datasets);
    warm_up(grid, datasets);
    setup_s.add(seconds_between(t0, Clock::now()));
  }

  ShadowAdmission shadow("grid", TenantQuota{});
  if (!options.trace) {
    PhaseResult r = run_passes(datasets, grid, Phase{options.seconds},
                               options.smoke, shadow);
    record.outcome.append(r.outcome);
    const double ops = static_cast<double>(
        r.writes.latency_ms.size() + r.scans.ops + r.reads.ops);
    record.end_to_end = end_to_end_metrics(
        setup_s,
        static_cast<double>(r.writes.file_bytes) /
            static_cast<double>(std::max<std::uint64_t>(r.writes.points, 1)));
    const std::size_t passes = r.pass_write_s.size();
    record.extras = {
        {"grid_write_s", r.pass_write_s.median(), "s", passes},
        {"grid_scan_s", r.pass_scan_s.median(), "s", passes},
        {"grid_point_read_s", r.pass_read_s.median(), "s", passes},
        {"point_read_p50_ms", r.reads.latency_ms.median(), "ms",
         r.reads.latency_ms.size()},
    };
    add_ungated(record, ops / r.elapsed, r.scans.latency_ms,
                r.writes.latency_ms);
  } else {
    PhaseResult base = run_passes(datasets, grid, Phase{options.seconds / 2},
                                  options.smoke, shadow);
    SpanRecorder spans(1);
    LayerProfile profile;
    PhaseResult traced =
        run_passes(datasets, grid, Phase{options.seconds / 2, &spans, &profile},
                   options.smoke, shadow);
    record.outcome.append(base.outcome);
    record.outcome.append(traced.outcome);
    ReadTally all_reads = traced.scans;
    all_reads.append(traced.reads);
    LayerInputs in;
    in.scans = &traced.scans;
    in.reads = &all_reads;
    in.writes = &traced.writes;
    in.profile = &profile;
    in.evictions = traced.evictions;
    in.working_set_bytes = traced.max_open_bytes;
    in.overhead_pct =
        overhead_pct(base.scans.latency_ms, traced.scans.latency_ms);
    record.layers = layer_metrics(in);
    write_trace(options, spans);
  }

  grid = Grid{};
  std::filesystem::remove_all(dir);
  return record;
}

}  // namespace artsparse::e2e
