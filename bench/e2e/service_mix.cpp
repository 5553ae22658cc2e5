// service_mix: one Service, two tenants, open loop. The store starts at
// 32 fragments (Manifest::kRtreeThreshold) over a 256^3 tensor: 4x4x2
// blocks of 64x64x128 cells, 4% fill, organizations rotating through
// GCSR++/GCSC++/CSF/SortedCOO.
//
//   analytics  kAnalyticsThreads threads, each on its own seeded Poisson
//              schedule of fixed count: 70% Session::scan (48^3 boxes), 20% scan_batch
//              (8 x 32^3), 10% read (1024 coords, half present).
//   ingest     1 thread at kIngestRate: Session::write of kWritePoints
//              cells from the same universe with a new version (value =
//              address + version / 1024), organizations rotating; after
//              every kConsolidateEvery writes, consolidate(SortedCOO).
//
// Quotas sit 10x above the offered load, so admission runs but never
// rejects; there is no deadline. Latency counts from when an op was due,
// so a stall also charges the ops queued behind it. Both rates are half of
// what the same clients complete in a closed loop (--saturate). This is the only
// workload through the service layer, with writes, duplicate cells,
// generation churn and consolidation beside the reads.
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "harness.hpp"

namespace artsparse::e2e {

namespace {

constexpr index_t kExtent = 256;
constexpr double kFill = 0.04;
constexpr int kAnalyticsThreads = 3;
/// Offered analytics ops/s over all threads and ingest writes/s: half of
/// what each tenant completed with every client in a closed loop
/// (--saturate), measured once (bench/e2e/README.md).
constexpr double kAnalyticsRate = 36.0;
constexpr double kIngestRate = 10.5;
/// The rate quotas are sized for in a closed loop: above what 4 cores
/// complete, so admission still runs but never binds.
constexpr double kClosedLoopQuotaRate = 1000.0;
constexpr std::size_t kWritePoints = 16384;
constexpr std::uint64_t kConsolidateEvery = 24;
constexpr index_t kScanEdge = 48;
constexpr index_t kBatchEdge = 32;
constexpr std::size_t kBatchBoxes = 8;
constexpr std::size_t kReadCoords = 1024;
/// Upper estimate of bytes one analytics op returns, for its quota.
constexpr double kAnalyticsBytesPerOp = 300.0 * 1024.0;
constexpr double kQuotaHeadroom = 10.0;

/// The organizations with sub-linear point lookup. COO and LINEAR search
/// every stored point per query, so a 1024-coord read fanned out over ~40
/// fragments would cost ~0.5 s and the mix would measure nothing else.
constexpr OrgKind kRotation[] = {OrgKind::kGcsr, OrgKind::kGcsc,
                                 OrgKind::kCsf, OrgKind::kSortedCoo};

OrgKind rotation(std::uint64_t i) {
  return kRotation[i % std::size(kRotation)];
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Everything one run shares across its phases.
struct Mix {
  Universe universe;
  std::unique_ptr<FragmentStore> store;
  std::unique_ptr<Service> service;  ///< reset before store: it refers to it
  std::uint64_t writes_done = 0;  ///< versions and consolidation cadence
  bool closed_loop = false;  ///< each op due when the client's last one ended
};

void close(Mix& mix) {
  mix.service.reset();
  mix.store.reset();
}

TenantQuota analytics_quota(double rate) {
  TenantQuota quota;
  quota.ops_per_sec = kQuotaHeadroom * rate;
  quota.bytes_per_sec = kQuotaHeadroom * rate * kAnalyticsBytesPerOp;
  quota.max_concurrent =
      static_cast<std::size_t>(kQuotaHeadroom * kAnalyticsThreads);
  return quota;
}

TenantQuota ingest_quota(double rate) {
  TenantQuota quota;
  quota.ops_per_sec = kQuotaHeadroom * rate;
  quota.bytes_per_sec = kQuotaHeadroom * rate * kWritePoints *
                        (3 * sizeof(index_t) + sizeof(value_t));
  quota.max_concurrent = static_cast<std::size_t>(kQuotaHeadroom);
  return quota;
}

/// `result` of a point read holds exactly the present queries, each with
/// floor(value) == address, in ascending address order.
std::string check_read(const ReadResult& result, const Shape& shape,
                       const std::vector<index_t>& present) {
  std::size_t distinct = 0;
  index_t previous = 0;
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    const index_t address = linearize(result.coords.point(i), shape);
    if (i > 0 && address < previous) return "read result out of order";
    if (!std::binary_search(present.begin(), present.end(), address)) {
      return "read returned absent cell " + std::to_string(address);
    }
    if (std::floor(result.values[i]) != static_cast<value_t>(address)) {
      return "read value does not encode its address";
    }
    if (i == 0 || address != previous) ++distinct;
    previous = address;
  }
  if (distinct != present.size()) {
    return "read found " + std::to_string(distinct) + " of " +
           std::to_string(present.size()) + " present cells";
  }
  return {};
}

/// One analytics op's inputs, drawn before it is due.
struct AnalyticsOp {
  enum Kind { kScan, kBatch, kRead } kind = kScan;
  std::vector<Box> boxes;
  CoordBuffer queries;
  std::vector<index_t> present;  ///< sorted, distinct
};

AnalyticsOp draw_op(Xoshiro256& rng, const Universe& u) {
  AnalyticsOp op;
  const std::uint64_t roll = rng.next_below(10);
  if (roll < 7) {
    op.kind = AnalyticsOp::kScan;
    op.boxes.push_back(random_box(rng, u.shape, kScanEdge));
  } else if (roll < 9) {
    op.kind = AnalyticsOp::kBatch;
    for (std::size_t i = 0; i < kBatchBoxes; ++i) {
      op.boxes.push_back(random_box(rng, u.shape, kBatchEdge));
    }
  } else {
    op.kind = AnalyticsOp::kRead;
    std::vector<index_t> cells;
    for (std::size_t i = 0; i < kReadCoords / 2; ++i) {
      op.present.push_back(u.all[rng.next_below(u.all.size())]);
      index_t absent = 0;
      do {
        absent = rng.next_below(u.shape.element_count());
      } while (u.contains(absent));
      cells.push_back(absent);
    }
    cells.insert(cells.end(), op.present.begin(), op.present.end());
    for (std::size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[rng.next_below(i)]);
    }
    op.queries = CoordBuffer(u.shape.rank());
    std::vector<index_t> point(u.shape.rank());
    for (const index_t cell : cells) {
      delinearize(cell, u.shape, point);
      op.queries.append(point);
    }
    std::sort(op.present.begin(), op.present.end());
    op.present.erase(std::unique(op.present.begin(), op.present.end()),
                     op.present.end());
  }
  return op;
}

struct TimedScan {
  Clock::time_point due, end;
  double ms;
};

struct Analytics {
  ReadTally scans, reads;
  Samples batch_ms;
  std::uint64_t batch_hits = 0, batch_misses = 0, batches = 0;
  std::vector<TimedScan> timed_scans;
  Samples lag_ms;
  Clock::time_point last_end{};
  Outcome outcome;
};

struct Ingest {
  WriteTally writes;
  Samples consolidate_s;
  double rewritten_bytes = 0.0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  Samples lag_ms;
  Clock::time_point last_end{};
  Outcome outcome;
};

void analytics_loop(std::size_t c, Mix& mix, const Phase& phase,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t seed, ShadowAdmission& shadow,
                    Analytics& out) {
  const Universe& u = mix.universe;
  Session session = mix.service->session("analytics");
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + c + 1);
  // A Poisson schedule conditioned on its count: the thread's share of the
  // offered ops, each due at a uniformly random time of the phase. Every
  // run then offers exactly the same load. A closed loop has no schedule.
  const double span = seconds_between(start, end);
  std::vector<double> offsets(
      mix.closed_loop ? 0
                      : static_cast<std::size_t>(std::llround(
                            kAnalyticsRate / kAnalyticsThreads * span)));
  for (double& offset : offsets) offset = rng.next_double() * span;
  std::sort(offsets.begin(), offsets.end());
  for (std::uint64_t n = 0; mix.closed_loop || n < offsets.size(); ++n) {
    const Clock::time_point due =
        mix.closed_loop ? Clock::now() : start + to_duration(offsets[n]);
    if (due >= end) break;
    const AnalyticsOp op = draw_op(rng, u);
    const std::uint64_t id = n * kAnalyticsThreads + c;
    const bool replay = phase.replay_due(n);
    std::this_thread::sleep_until(due);
    const Clock::time_point t0 = Clock::now();
    out.lag_ms.add(seconds_between(due, t0) * 1e3);
    ++out.outcome.attempted;
    try {
      const std::uint64_t generation = replay ? mix.store->generation() : 0;
      std::vector<ReadResult> results;
      const char* name = "op.scan";
      switch (op.kind) {
        case AnalyticsOp::kScan:
          results.push_back(session.scan(op.boxes.front()));
          break;
        case AnalyticsOp::kBatch:
          results = session.scan_batch(op.boxes);
          name = "op.scan_batch";
          break;
        case AnalyticsOp::kRead:
          results.push_back(session.read(op.queries));
          name = "op.read";
          break;
      }
      const Clock::time_point t1 = Clock::now();
      out.last_end = t1;
      const double latency = seconds_between(due, t1);
      switch (op.kind) {
        case AnalyticsOp::kScan:
          out.scans.add(results.front(), latency);
          out.timed_scans.push_back({due, t1, latency * 1e3});
          break;
        case AnalyticsOp::kBatch:
          out.batch_ms.add(latency * 1e3);
          ++out.batches;
          for (const ReadResult& r : results) {
            out.batch_hits += r.times.cache_hits;
            out.batch_misses += r.times.cache_misses;
          }
          break;
        case AnalyticsOp::kRead:
          out.reads.add(results.front(), latency);
          break;
      }
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string error =
            op.kind == AnalyticsOp::kRead
                ? check_read(results[i], u.shape, op.present)
                : check_scan(results[i], op.boxes[i], u.shape, ValueRange{},
                             /*unique=*/false,
                             u.count_in(op.boxes[i], ValueRange{}));
        if (!error.empty()) out.outcome.mismatch(error);
      }
      if (!phase.traced()) continue;
      phase.spans->record(c, name, t0, t1, id);
      if (op.kind != AnalyticsOp::kBatch) {
        phase.spans->record_breakdown(c, t0, results.front().times, id);
      }
      if (!replay) continue;
      // The op read the generation current when it ran; replay only when
      // no publish happened in between, so that generation is pinned here.
      const Snapshot snapshot = session.snapshot();
      if (snapshot.generation() != generation) {
        const std::lock_guard<std::mutex> lock(phase.profile->mutex);
        ++phase.profile->skipped;
        continue;
      }
      bool same = true;
      for (std::size_t i = 0; i < results.size(); ++i) {
        same = same &&
               (op.kind == AnalyticsOp::kRead
                    ? replay_read(snapshot, op.queries, results[i], shadow,
                                  *phase.profile, phase.spans, c, id)
                    : replay_scan(snapshot, op.boxes[i], ValueRange{},
                                  results[i], shadow, *phase.profile,
                                  phase.spans, c, id));
      }
      if (!same) out.outcome.mismatch("replay differs from the op's result");
    } catch (const std::exception& e) {
      out.outcome.error(e.what());
    }
  }
}

void ingest_loop(Mix& mix, const Phase& phase, Clock::time_point start,
                 Clock::time_point end, std::uint64_t seed, Ingest& out) {
  const Universe& u = mix.universe;
  const std::size_t lane = kAnalyticsThreads;
  Session session = mix.service->session("ingest");
  Xoshiro256 rng(seed ^ 0x1f2e3d4c5b6a7988ULL);
  CoordBuffer coords;
  std::vector<value_t> values;
  for (std::uint64_t n = 0;; ++n) {
    const Clock::time_point due =
        mix.closed_loop
            ? Clock::now()
            : start + to_duration(static_cast<double>(n) / kIngestRate);
    if (due >= end) break;
    // A contiguous run of the universe in address order: a slab a few
    // x-planes thick, as a time-ordered ingest would produce.
    const std::size_t first = rng.next_below(u.all.size() - kWritePoints + 1);
    const std::vector<index_t> cells(
        u.all.begin() + static_cast<std::ptrdiff_t>(first),
        u.all.begin() + static_cast<std::ptrdiff_t>(first + kWritePoints));
    const std::uint64_t version = mix.writes_done % 1023 + 1;
    make_payload(cells, u.shape, version, rng.next(), coords, values);
    const OrgKind org = rotation(mix.writes_done);
    std::this_thread::sleep_until(due);
    const Clock::time_point t0 = Clock::now();
    out.lag_ms.add(seconds_between(due, t0) * 1e3);
    ++out.outcome.attempted;
    try {
      const WriteResult w = session.write(coords, values, org);
      const Clock::time_point t1 = Clock::now();
      out.last_end = t1;
      out.writes.add(w, seconds_between(due, t1), org);
      if (w.point_count != kWritePoints) {
        out.outcome.mismatch("write stored " + std::to_string(w.point_count) +
                             " points");
      }
      if (phase.traced()) phase.spans->record(lane, "op.write", t0, t1, n);
      if (++mix.writes_done % kConsolidateEvery == 0) {
        const Clock::time_point c0 = Clock::now();
        const WriteResult merged =
            mix.store->consolidate(OrgKind::kSortedCoo);
        const Clock::time_point c1 = Clock::now();
        out.last_end = c1;
        out.consolidate_s.add(seconds_between(c0, c1));
        out.rewritten_bytes += static_cast<double>(merged.file_bytes);
        out.windows.emplace_back(c0, c1);
        if (merged.point_count != u.point_count()) {
          out.outcome.mismatch("consolidate kept " +
                               std::to_string(merged.point_count) + " of " +
                               std::to_string(u.point_count()) + " cells");
        }
        if (phase.traced()) {
          phase.spans->record(lane, "op.consolidate", c0, c1, n);
        }
      }
    } catch (const std::exception& e) {
      out.outcome.error(e.what());
    }
  }
}

struct PhaseResult {
  Analytics analytics;  ///< all threads merged
  Ingest ingest;
  double elapsed = 0.0;
  std::uint64_t evictions = 0;
  BatchStats batch;
  double scan_slowdown = 0.0;
};

PhaseResult run_phase(Mix& mix, const Phase& phase, std::uint64_t seed,
                      ShadowAdmission& shadow) {
  const CacheStats cache_before = mix.store->cache().stats();
  const BatchStats batch_before = mix.service->batch_stats();
  std::vector<Analytics> analytics(kAnalyticsThreads);
  PhaseResult r;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + to_duration(phase.seconds);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < analytics.size(); ++c) {
      threads.emplace_back([&, c] {
        analytics_loop(c, mix, phase, start, end, seed, shadow, analytics[c]);
      });
    }
    threads.emplace_back(
        [&] { ingest_loop(mix, phase, start, end, seed, r.ingest); });
  }
  Clock::time_point last = std::max(end, r.ingest.last_end);
  Analytics& all = r.analytics;
  for (const Analytics& a : analytics) {
    all.scans.append(a.scans);
    all.reads.append(a.reads);
    all.batch_ms.append(a.batch_ms);
    all.batch_hits += a.batch_hits;
    all.batch_misses += a.batch_misses;
    all.batches += a.batches;
    all.timed_scans.insert(all.timed_scans.end(), a.timed_scans.begin(),
                           a.timed_scans.end());
    all.lag_ms.append(a.lag_ms);
    last = std::max(last, a.last_end);
    all.outcome.append(a.outcome);
  }
  r.elapsed = seconds_between(start, last);
  r.evictions = mix.store->cache().stats().evictions - cache_before.evictions;
  const BatchStats batch_after = mix.service->batch_stats();
  r.batch.batches = batch_after.batches - batch_before.batches;
  r.batch.requests = batch_after.requests - batch_before.requests;
  r.batch.max_batch = batch_after.max_batch;

  // Scans whose lifetime overlapped a consolidation, against all scans.
  Samples during;
  for (const TimedScan& s : all.timed_scans) {
    for (const auto& [c0, c1] : r.ingest.windows) {
      if (s.due < c1 && s.end > c0) {
        during.add(s.ms);
        break;
      }
    }
  }
  if (during.size() > 0 && all.scans.latency_ms.median() > 0.0) {
    r.scan_slowdown = during.median() / all.scans.latency_ms.median();
  }
  return r;
}

Mix build(const std::filesystem::path& dir, std::uint64_t seed,
          bool closed_loop, WriteTally& writes) {
  Mix mix;
  mix.closed_loop = closed_loop;
  mix.universe = make_universe(Shape::uniform(3, kExtent), 64, 64, 128,
                               kFill, seed);
  mix.store = std::make_unique<FragmentStore>(
      dir, mix.universe.shape, DeviceModel::unthrottled(),
      CodecKind::kIdentity,
      std::make_shared<FragmentCache>(FragmentCache::kDefaultBudgetBytes));
  CoordBuffer coords;
  std::vector<value_t> values;
  for (std::size_t b = 0; b < mix.universe.blocks.size(); ++b) {
    make_payload(mix.universe.addresses[b], mix.universe.shape, 0, seed + b,
                 coords, values);
    const Clock::time_point t0 = Clock::now();
    const WriteResult w = mix.store->write(coords, values, rotation(b));
    writes.add(w, seconds_between(t0, Clock::now()), rotation(b));
  }
  mix.store->scan_region(Box::whole(mix.universe.shape));

  mix.service = std::make_unique<Service>(*mix.store, TenantQuota{});
  mix.service->admission().set_quota(
      "analytics", analytics_quota(closed_loop ? kClosedLoopQuotaRate
                                               : kAnalyticsRate));
  mix.service->admission().set_quota(
      "ingest",
      ingest_quota(closed_loop ? kClosedLoopQuotaRate : kIngestRate));
  return mix;
}

std::uint64_t rejected(const Service& service) {
  return service.admission().stats("analytics").rejected() +
         service.admission().stats("ingest").rejected();
}

}  // namespace

RunRecord run_service_mix(const Options& options) {
  RunRecord record;
  record.workload = options.workload;
  const std::filesystem::path dir = options.work_dir / options.workload;

  Samples setup_s;
  WriteTally setup_writes;
  Mix mix;
  for (int rep = 0; rep < setup_repetitions(options); ++rep) {
    close(mix);
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    mix = build(dir, options.seed, options.saturate, setup_writes);
    setup_s.add(seconds_between(t0, Clock::now()));
  }
  const double working_set = decoded_bytes(mix.store->snapshot());
  ShadowAdmission shadow("analytics", analytics_quota(kAnalyticsRate));

  if (!options.trace) {
    PhaseResult r = run_phase(mix, Phase{options.seconds}, options.seed,
                              shadow);
    record.outcome.append(r.analytics.outcome);
    record.outcome.append(r.ingest.outcome);
    const WriteTally& writes = r.ingest.writes;
    const double ops = static_cast<double>(record.outcome.attempted - record.outcome.failed);
    // Bytes per point of everything the run committed: the ingest
    // fragments and the consolidated rewrites.
    const double bytes = static_cast<double>(writes.file_bytes) +
                         r.ingest.rewritten_bytes;
    const double points =
        static_cast<double>(writes.points) +
        static_cast<double>(r.ingest.consolidate_s.size()) *
            static_cast<double>(mix.universe.point_count());
    record.end_to_end = end_to_end_metrics(setup_s, bytes / points);
    Samples lag = r.analytics.lag_ms;
    lag.append(r.ingest.lag_ms);
    const Outcome& analytics = r.analytics.outcome;
    record.extras = {
        {"batch_scan_p50_ms", r.analytics.batch_ms.median(), "ms",
         r.analytics.batch_ms.size()},
        {"point_read_p50_ms", r.analytics.reads.latency_ms.median(), "ms",
         r.analytics.reads.latency_ms.size()},
        {"consolidate_s", r.ingest.consolidate_s.median(), "s",
         r.ingest.consolidate_s.size()},
        {"scan_max_ms", r.analytics.scans.latency_ms.max(), "ms",
         r.analytics.scans.latency_ms.size()},
        {"generator_lag_p50_ms", lag.median(), "ms", lag.size()},
        {"generator_lag_max_ms", lag.max(), "ms", lag.size()},
        {"analytics_ops_per_s",
         static_cast<double>(analytics.attempted - analytics.failed) /
             r.elapsed,
         "1/s", analytics.attempted},
        {"ingest_writes_per_s",
         static_cast<double>(writes.latency_ms.size()) / r.elapsed, "1/s",
         r.ingest.outcome.attempted},
        {"rejected_ops", static_cast<double>(rejected(*mix.service)),
         "count", record.outcome.attempted},
    };
    add_ungated(record, ops / r.elapsed, r.analytics.scans.latency_ms,
                writes.latency_ms);
  } else {
    PhaseResult base = run_phase(mix, Phase{options.seconds / 2},
                                 options.seed, shadow);
    const std::uint64_t base_rejected = rejected(*mix.service);
    // The traced half replays the same schedule from the same starting
    // store, so the two halves compare.
    close(mix);
    std::filesystem::remove_all(dir);
    WriteTally rebuild_writes;
    mix = build(dir, options.seed, false, rebuild_writes);
    SpanRecorder spans(kAnalyticsThreads + 1);
    LayerProfile profile;
    PhaseResult traced =
        run_phase(mix, Phase{options.seconds / 2, &spans, &profile},
                  options.seed, shadow);
    for (const PhaseResult* p : {&base, &traced}) {
      record.outcome.append(p->analytics.outcome);
      record.outcome.append(p->ingest.outcome);
    }
    const Analytics& a = traced.analytics;
    ReadTally all_reads = a.scans;
    all_reads.append(a.reads);
    all_reads.hits += a.batch_hits;
    all_reads.misses += a.batch_misses;
    all_reads.ops += a.batches;
    WriteTally writes = setup_writes;
    writes.append(traced.ingest.writes);
    LayerInputs in;
    in.scans = &a.scans;
    in.reads = &all_reads;
    in.writes = &writes;
    in.profile = &profile;
    in.evictions = traced.evictions;
    in.working_set_bytes = working_set;
    in.batch = traced.batch;
    in.rejected = base_rejected + rejected(*mix.service);
    in.consolidate_s = traced.ingest.consolidate_s;
    in.rewritten_bytes = traced.ingest.rewritten_bytes;
    in.scan_slowdown = traced.scan_slowdown;
    in.overhead_pct =
        overhead_pct(base.analytics.scans.latency_ms, a.scans.latency_ms);
    record.layers = layer_metrics(in);
    write_trace(options, spans);
  }

  close(mix);
  std::filesystem::remove_all(dir);
  return record;
}

}  // namespace artsparse::e2e
