// scan_hot and scan_cold: one 256^3 tensor stored as 64 fragments (4^3
// blocks of 64^3 cells, 4% fill, ~672k points), organizations rotating
// GCSR++/GCSC++/CSF/LINEAR/SortedCOO. Ops are seeded random 64^3 boxes:
// scan_region for 3 of 4, scan_region_where over half the value range for
// 1 of 4. A box touches at most 8 fragments and returns ~10.5k points.
// Both call Snapshot directly, so the service layer is bypassed.
//
//   scan_hot   identity codec, 256 MiB cache (every get hits after the
//              warm-up), 4 clients, closed loop: format kernels, the merge
//              sort and per-call thread spawn dominate.
//   scan_cold  delta+varint codec, 4 MiB cache (below the decoded working
//              set), 1 client, closed loop: misses plus load and decode
//              dominate. A change that helps hits at the cost of misses,
//              or trades decode speed for space, shows here.
#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"

namespace artsparse::e2e {

namespace {

constexpr index_t kExtent = 256;
constexpr index_t kBlock = 64;
constexpr double kFill = 0.04;
constexpr index_t kBoxEdge = 64;

struct ScanConfig {
  CodecKind codec;
  std::size_t cache_bytes;
  int clients;
};

constexpr OrgKind kRotation[] = {OrgKind::kGcsr, OrgKind::kGcsc,
                                 OrgKind::kCsf, OrgKind::kLinear,
                                 OrgKind::kSortedCoo};

/// Random ops run by the cold warm-up, so timing starts from a steady LRU.
constexpr int kColdWarmOps = 64;

struct Store {
  Universe universe;
  std::unique_ptr<FragmentStore> store;
};

/// Set-up: universe, one fragment per block, warm-up.
Store build(const std::filesystem::path& dir, const ScanConfig& config,
            std::uint64_t seed, WriteTally& writes) {
  Store s;
  s.universe = make_universe(Shape::uniform(3, kExtent), kBlock, kBlock,
                             kBlock, kFill, seed);
  s.store = std::make_unique<FragmentStore>(
      dir, s.universe.shape, DeviceModel::unthrottled(), config.codec,
      std::make_shared<FragmentCache>(config.cache_bytes));
  CoordBuffer coords;
  std::vector<value_t> values;
  for (std::size_t b = 0; b < s.universe.blocks.size(); ++b) {
    make_payload(s.universe.addresses[b], s.universe.shape, 0, seed + b,
                 coords, values);
    const OrgKind org = kRotation[b % std::size(kRotation)];
    const Clock::time_point t0 = Clock::now();
    const WriteResult w = s.store->write(coords, values, org);
    writes.add(w, seconds_between(t0, Clock::now()), org);
  }
  if (config.cache_bytes >= FragmentCache::kDefaultBudgetBytes) {
    s.store->scan_region(Box::whole(s.universe.shape));
  } else {
    Xoshiro256 rng(seed ^ 0xc01dULL);
    for (int i = 0; i < kColdWarmOps; ++i) {
      s.store->scan_region(random_box(rng, s.universe.shape, kBoxEdge));
    }
  }
  return s;
}

struct Client {
  ReadTally scans;
  Outcome outcome;
};

void client_loop(std::size_t c, std::size_t clients, const Store& s,
                 const Phase& phase, Clock::time_point deadline,
                 std::uint64_t seed, ShadowAdmission& shadow, Client& out) {
  const Shape& shape = s.universe.shape;
  const double half = static_cast<double>(shape.element_count()) / 2.0;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + c + 1);
  for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
    const std::uint64_t id = n * clients + c;
    const Box box = random_box(rng, shape, kBoxEdge);
    const bool where = rng.next_below(4) == 3;
    ValueRange range;
    if (where) {
      range.min = std::floor(rng.next_double() * half);
      range.max = range.min + half - 1.0;
    }
    ++out.outcome.attempted;
    try {
      const Snapshot snapshot = s.store->snapshot();
      const Clock::time_point t0 = Clock::now();
      const ReadResult result = where
                                    ? snapshot.scan_region_where(box, range)
                                    : snapshot.scan_region(box);
      const Clock::time_point t1 = Clock::now();
      out.scans.add(result, seconds_between(t0, t1));
      const std::string error =
          check_scan(result, box, shape, range, /*unique=*/true,
                     s.universe.count_in(box, range));
      if (!error.empty()) out.outcome.mismatch(error);
      if (!phase.traced()) continue;
      phase.spans->record(c, where ? "op.scan_region_where" : "op.scan_region",
                          t0, t1, id);
      phase.spans->record_breakdown(c, t0, result.times, id);
      if (phase.replay_due(n) &&
          !replay_scan(snapshot, box, range, result, shadow, *phase.profile,
                       phase.spans, c, id)) {
        out.outcome.mismatch("replay differs from the op's result");
      }
    } catch (const std::exception& e) {
      out.outcome.error(e.what());
    }
  }
}

struct PhaseResult {
  ReadTally scans;
  double elapsed = 0.0;
  std::uint64_t evictions = 0;
  Outcome outcome;
};

PhaseResult run_clients(const Store& s, const ScanConfig& config,
                        const Phase& phase, std::uint64_t seed,
                        ShadowAdmission& shadow) {
  const CacheStats before = s.store->cache().stats();
  std::vector<Client> clients(config.clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        client_loop(c, clients.size(), s, phase, deadline, seed, shadow,
                    clients[c]);
      });
    }
  }
  PhaseResult r;
  r.elapsed = seconds_between(start, Clock::now());
  for (const Client& client : clients) {
    r.scans.append(client.scans);
    r.outcome.append(client.outcome);
  }
  r.evictions = s.store->cache().stats().evictions - before.evictions;
  return r;
}

RunRecord run_scan(const Options& options, const ScanConfig& config) {
  RunRecord record;
  record.workload = options.workload;
  const std::filesystem::path dir = options.work_dir / options.workload;

  Samples setup_s;
  WriteTally writes;
  Store s;
  for (int rep = 0; rep < setup_repetitions(options); ++rep) {
    s = Store{};
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    s = build(dir, config, options.seed, writes);
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  const double working_set = decoded_bytes(s.store->snapshot());

  ShadowAdmission shadow("scan", TenantQuota{});
  const std::uint64_t seed = options.seed;
  if (!options.trace) {
    PhaseResult r =
        run_clients(s, config, Phase{options.seconds}, seed, shadow);
    record.outcome.append(r.outcome);
    record.end_to_end = end_to_end_metrics(
        setup_s, static_cast<double>(writes.file_bytes) /
                     static_cast<double>(writes.points));
    record.extras = {
        {"decoded_working_set_mb", working_set / (1024.0 * 1024.0), "MiB", 1},
        {"cache_budget_mb",
         static_cast<double>(config.cache_bytes) / (1024.0 * 1024.0), "MiB",
         1},
        {"cache_hit_ratio",
         static_cast<double>(r.scans.hits) /
             static_cast<double>(std::max<std::uint64_t>(
                 r.scans.hits + r.scans.misses, 1)),
         "ratio", r.scans.hits + r.scans.misses},
    };
    add_ungated(record,
                static_cast<double>(r.outcome.attempted - r.outcome.failed) /
                    r.elapsed,
                r.scans.latency_ms, writes.latency_ms);
  } else {
    PhaseResult base =
        run_clients(s, config, Phase{options.seconds / 2}, seed, shadow);
    SpanRecorder spans(config.clients);
    LayerProfile profile;
    // The same op stream as the untraced half, so the two compare.
    PhaseResult traced =
        run_clients(s, config, Phase{options.seconds / 2, &spans, &profile},
                    seed, shadow);
    record.outcome.append(base.outcome);
    record.outcome.append(traced.outcome);
    LayerInputs in;
    in.scans = &traced.scans;
    in.reads = &traced.scans;
    in.writes = &writes;
    in.profile = &profile;
    in.evictions = traced.evictions;
    in.working_set_bytes = working_set;
    in.overhead_pct =
        overhead_pct(base.scans.latency_ms, traced.scans.latency_ms);
    record.layers = layer_metrics(in);
    write_trace(options, spans);
  }

  s = Store{};
  std::filesystem::remove_all(dir);
  return record;
}

}  // namespace

RunRecord run_scan_hot(const Options& options) {
  return run_scan(options, ScanConfig{CodecKind::kIdentity,
                                      FragmentCache::kDefaultBudgetBytes, 4});
}

RunRecord run_scan_cold(const Options& options) {
  return run_scan(options,
                  ScanConfig{CodecKind::kDeltaVarint, std::size_t{4} << 20, 1});
}

}  // namespace artsparse::e2e
