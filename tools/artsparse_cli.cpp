// artsparse — command-line front end for the library.
//
//   artsparse generate --shape 512,512 --pattern gsp --density 0.01
//                      --seed 42 --store DIR --org gcsr [--tile 128,128]
//   artsparse import   --store DIR --shape 512,512 --tsv points.tsv
//                      --org linear
//   artsparse read     --store DIR --region 10:20,30:40 [--print]
//                      [--cache-bytes 64M] [--read-policy strict|skip]
//   artsparse scan     --store DIR --region 10:20,30:40 [--print]
//                      [--cache-bytes 64M] [--read-policy strict|skip]
//   artsparse info     --store DIR
//   artsparse advise   --store DIR [--weights balanced|read|archive]
//   artsparse consolidate --store DIR [--org ORG]
//   artsparse export   --store DIR --tsv out.tsv
//   artsparse repair   --store DIR [--depth header|structure|full]
//   artsparse metrics  [--store DIR] [--region R] [--format prometheus|
//                      json|both] [--trace FILE]
//   artsparse serve-selftest [--threads N] [--ops N] [--json] [--chaos]
//
// Every command prints a one-line summary; data-carrying commands accept
// --print to dump points, and read/scan accept --json for a machine-
// readable result that includes an observability telemetry block.
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "cli_support.hpp"
#include "storage/fault.hpp"

namespace artsparse::cli {
namespace {

int usage() {
  std::fputs(
      "usage: artsparse <command> [options]\n"
      "  generate  --shape S --pattern tsp|gsp|msp --density F --seed N\n"
      "            --store DIR [--org ORG] [--tile S] [--codec none|dv]\n"
      "  import    --store DIR --shape S --tsv FILE [--org ORG]\n"
      "  read      --store DIR --region lo:hi,... [--print] [--json]\n"
      "            [--cache-bytes N[K|M|G]] [--read-policy strict|skip]\n"
      "  scan      --store DIR --region lo:hi,... [--print] [--json]\n"
      "            [--cache-bytes N[K|M|G]] [--read-policy strict|skip]\n"
      "  info      --store DIR\n"
      "  advise    --store DIR [--weights balanced|read|archive]\n"
      "  consolidate --store DIR [--org ORG]\n"
      "  export    --store DIR --tsv FILE\n"
      "  check     --store DIR [--depth header|structure|full] [--json]\n"
      "  repair    --store DIR [--depth header|structure|full]\n"
      "  metrics   [--store DIR] [--region lo:hi,...]\n"
      "            [--format prometheus|json|both] [--trace FILE]\n"
      "  serve-selftest [--threads N] [--ops N] [--json] [--chaos]\n",
      stderr);
  return 2;
}

PatternSpec spec_for(PatternKind pattern, const Shape& shape,
                     double density) {
  switch (pattern) {
    case PatternKind::kTsp:
      return calibrate_tsp(shape, density);
    case PatternKind::kGsp:
      return calibrate_gsp(density);
    case PatternKind::kMsp:
      return calibrate_msp(shape, density,
                           std::min(0.001, density / 2.0));
  }
  throw FormatError("unknown pattern");
}

CodecKind codec_for(const std::string& name) {
  if (name.empty() || name == "none" || name == "identity") {
    return CodecKind::kIdentity;
  }
  if (name == "dv" || name == "delta-varint") return CodecKind::kDeltaVarint;
  if (name == "delta") return CodecKind::kDelta;
  if (name == "varint") return CodecKind::kVarint;
  if (name == "rle") return CodecKind::kRle;
  throw FormatError("unknown codec: " + name);
}

void print_points(const ReadResult& result) {
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    const auto p = result.coords.point(i);
    for (index_t c : p) {
      std::printf("%llu\t", static_cast<unsigned long long>(c));
    }
    std::printf("%.17g\n", result.values[i]);
  }
}

int cmd_generate(const Args& args) {
  const Shape shape = parse_shape(args.get("shape"));
  const PatternKind pattern = parse_pattern(args.get("pattern", "gsp"));
  const double density = std::stod(args.get("density", "0.01"));
  const std::uint64_t seed = std::stoull(args.get("seed", "42"));
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");

  const SparseDataset dataset =
      make_dataset(shape, spec_for(pattern, shape, density), seed);
  // Every option is parsed before the store directory is created.
  const std::optional<OrgKind> org =
      args.has("org") ? std::optional(parse_org(args.get("org")))
                      : std::nullopt;
  const std::optional<TileGrid> grid =
      args.has("tile")
          ? std::optional(TileGrid(shape, parse_shape(args.get("tile"))))
          : std::nullopt;
  FragmentStore store(dir, shape, DeviceModel::unthrottled(),
                      codec_for(args.get("codec")));

  if (grid.has_value()) {
    // Without --org the advisor picks per tile.
    const TiledWriteResult written =
        write_tiled(store, *grid, dataset.coords, dataset.values, org);
    std::printf("generated %zu points (%s, density %.4f%%) into %zu tile "
                "fragments, %zu bytes\n",
                dataset.point_count(), to_string(pattern).c_str(),
                dataset.density() * 100.0, written.tiles_written,
                written.file_bytes);
  } else {
    const OrgKind fixed = org.value_or(OrgKind::kGcsr);
    const WriteResult written =
        store.write(dataset.coords, dataset.values, fixed);
    std::printf("generated %zu points (%s, density %.4f%%) as %s, %zu "
                "bytes in %.4fs\n",
                dataset.point_count(), to_string(pattern).c_str(),
                dataset.density() * 100.0, to_string(fixed).c_str(),
                written.file_bytes, written.times.total());
  }
  return 0;
}

int cmd_import(const Args& args) {
  const std::string dir = args.get("store");
  const std::string tsv = args.get("tsv");
  detail::require(!dir.empty() && !tsv.empty(),
                  "--store and --tsv are required");
  const Shape shape = parse_shape(args.get("shape"));
  const OrgKind org = parse_org(args.get("org", "gcsr"));

  const auto [coords, values] = read_tsv(tsv);
  FragmentStore store(dir, shape);
  const WriteResult written = store.write(coords, values, org);
  std::printf("imported %zu points as %s, %zu bytes\n", coords.size(),
              to_string(org).c_str(), written.file_bytes);
  return 0;
}

ReadFaultPolicy parse_read_policy(const std::string& name) {
  if (name.empty() || name == "strict") return ReadFaultPolicy::kStrict;
  if (name == "skip") return ReadFaultPolicy::kSkip;
  throw FormatError("unknown read policy: " + name +
                    " (expected strict or skip)");
}

int cmd_read(const Args& args, bool scan) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const Shape shape = store_shape(dir);
  auto cache = std::make_shared<FragmentCache>(
      args.has("cache-bytes") ? parse_byte_size(args.get("cache-bytes"))
                              : FragmentCache::budget_from_env());
  FragmentStore store(dir, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  store.set_read_fault_policy(parse_read_policy(args.get("read-policy")));
  const Box region = args.has("region") ? parse_region(args.get("region"))
                                        : Box::whole(shape);
  const ReadResult result =
      scan ? store.scan_region(region) : store.read_region(region);
  if (args.has("json")) {
    // Machine-readable result: the query summary plus a telemetry block
    // scraped from the process-wide metrics registry.
    std::printf("{\"command\": \"%s\", \"region\": \"%s\", "
                "\"points\": %zu, \"fragments_visited\": %zu, "
                "\"fragments_skipped\": %zu,\n",
                scan ? "scan" : "read",
                obs::json_escape(region.to_string()).c_str(),
                result.values.size(), result.fragments_visited,
                result.skipped.size());
    std::printf(" \"times\": {\"discover_sec\": %.9g, \"extract_sec\": "
                "%.9g, \"query_sec\": %.9g, \"merge_sec\": %.9g, "
                "\"total_sec\": %.9g},\n",
                result.times.discover, result.times.extract,
                result.times.query, result.times.merge,
                result.times.total());
    const CacheStats cache_stats = cache->stats();
    std::printf(" \"cache\": {\"hits\": %zu, \"misses\": %zu, "
                "\"evictions\": %zu, \"open_count\": %zu, "
                "\"open_bytes\": %zu},\n",
                cache_stats.hits, cache_stats.misses, cache_stats.evictions,
                cache_stats.open_count, cache_stats.open_bytes);
    std::printf(" \"telemetry\": %s}\n",
                obs::to_json(obs::registry().snapshot()).c_str());
    return 0;
  }
  std::printf("%s %s: %zu points from %zu fragments in %.4fs "
              "(discover %.4f, extract %.4f, query %.4f, merge %.4f)\n",
              scan ? "scan" : "read", region.to_string().c_str(),
              result.values.size(), result.fragments_visited,
              result.times.total(), result.times.discover,
              result.times.extract, result.times.query, result.times.merge);
  std::printf("%s\n", format_cache_stats(cache->stats()).c_str());
  for (const SkippedFragment& skipped : result.skipped) {
    std::printf("skipped %s: %s\n", skipped.path.c_str(),
                skipped.error.c_str());
  }
  if (!result.skipped.empty()) {
    std::printf("answered from %zu of %zu fragments (%zu skipped)\n",
                result.fragments_visited - result.skipped.size(),
                result.fragments_visited, result.skipped.size());
  }
  if (args.has("print")) print_points(result);
  return 0;
}

int cmd_info(const Args& args) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const Shape shape = store_shape(dir);
  FragmentStore store(dir, shape);
  std::printf("store %s\n  tensor shape: %s\n  fragments: %zu\n"
              "  total bytes: %zu\n",
              dir.c_str(), shape.to_string().c_str(),
              store.fragment_count(), store.total_file_bytes());
  // Per-fragment detail from the headers the open's sweep parsed, in name
  // order; quarantined fragments are not part of the store.
  for (const check::FragmentReport& fragment : store.last_scan().fragments) {
    if (!fragment.ok()) continue;
    const FragmentInfo& info = fragment.info;
    std::printf("  %s: %s, %llu points, bbox %s, codec %s\n",
                std::filesystem::path(fragment.path).filename().c_str(),
                to_string(info.org).c_str(),
                static_cast<unsigned long long>(info.point_count),
                info.bbox.empty() ? "(empty)" : info.bbox.to_string().c_str(),
                to_string(info.codec).c_str());
  }
  return 0;
}

int cmd_advise(const Args& args) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const Shape shape = store_shape(dir);
  FragmentStore store(dir, shape);
  const ReadResult all = store.scan_region(Box::whole(shape));
  detail::require(!all.values.empty(), "store holds no points");

  const SparsityProfile profile = profile_sparsity(all.coords, shape);
  const WorkloadWeights weights = parse_weights(args.get("weights"));
  const Recommendation rec = recommend_organization(
      profile, weights, std::stod(args.get("queries-per-write", "1.0")));

  std::printf("%s\n", profile.to_string().c_str());
  for (const CostEstimate& e : rec.ranking) {
    std::printf("  %-10s score %.3f — %s\n", to_string(e.org).c_str(),
                e.weighted_score, e.rationale.c_str());
  }
  std::printf("recommended: %s\n", to_string(rec.best().org).c_str());
  return 0;
}

int cmd_consolidate(const Args& args) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const Shape shape = store_shape(dir);
  FragmentStore store(dir, shape);
  const std::size_t before = store.fragment_count();
  std::optional<OrgKind> org;
  if (args.has("org")) org = parse_org(args.get("org"));
  const WriteResult merged = store.consolidate(org);
  std::printf("consolidated %zu fragments into 1 (%zu points, %zu bytes, "
              "org from fragment header)\n",
              before, merged.point_count, merged.file_bytes);
  return 0;
}

int cmd_export(const Args& args) {
  const std::string dir = args.get("store");
  const std::string tsv = args.get("tsv");
  detail::require(!dir.empty() && !tsv.empty(),
                  "--store and --tsv are required");
  const Shape shape = store_shape(dir);
  FragmentStore store(dir, shape);
  const ReadResult all = store.scan_region(Box::whole(shape));
  write_tsv(tsv, all.coords, all.values);
  std::printf("exported %zu points to %s\n", all.values.size(), tsv.c_str());
  return 0;
}

int cmd_check(const Args& args) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const check::Depth depth =
      check::depth_from_string(args.get("depth", "structure"));
  const check::StoreReport report = check::check_store(dir, depth);
  if (args.has("json")) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    for (const auto& fragment : report.fragments) {
      for (const auto& issue : fragment.issues.items()) {
        std::printf("%s: %s: %s\n", fragment.path.c_str(),
                    issue.rule.c_str(), issue.detail.c_str());
      }
    }
    for (const std::string& stray : report.strays) {
      std::printf("%s: stray non-fragment file\n", stray.c_str());
    }
    std::printf("checked %zu fragments at depth %s: %zu ok, %zu corrupt, "
                "%zu strays\n",
                report.checked(), check::to_string(depth).c_str(),
                report.checked() - report.failed(), report.failed(),
                report.strays.size());
  }
  return report.ok() ? 0 : 1;
}

int cmd_repair(const Args& args) {
  const std::string dir = args.get("store");
  detail::require(!dir.empty(), "--store is required");
  const check::Depth depth =
      check::depth_from_string(args.get("depth", "header"));
  const check::StoreReport report = check::repair_store(dir, depth);
  for (const std::string& path : report.swept_tmp) {
    std::printf("swept %s\n", path.c_str());
  }
  for (const std::string& path : report.quarantined) {
    std::printf("quarantined %s\n", path.c_str());
  }
  for (const std::string& path : report.strays) {
    std::printf("stray %s\n", path.c_str());
  }
  std::printf("repaired %s at depth %s: %zu fragments checked, %zu "
              "orphaned tmp swept, %zu quarantined, %zu strays\n",
              report.directory.c_str(), check::to_string(depth).c_str(),
              report.checked(), report.swept_tmp.size(),
              report.quarantined.size(), report.strays.size());
  return 0;
}

/// Exercises the full write + read path against a throwaway store so a
/// bare `artsparse metrics` (and the CI smoke job) sees every hot-path
/// metric populated: tiled write, commit, cold reads (cache misses), then
/// a warm re-read (cache hits).
void metrics_selftest() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("artsparse_metrics_" + std::to_string(::getpid()));
  {
    const Shape shape = parse_shape("64,64");
    const SparseDataset dataset =
        make_dataset(shape, calibrate_gsp(0.02), 7);
    FragmentStore store(dir, shape);
    write_tiled(store, TileGrid(shape, parse_shape("32,32")), dataset.coords,
                dataset.values, std::nullopt);
    store.scan_region(Box::whole(shape));  // cold: cache misses
    store.scan_region(Box::whole(shape));  // warm: cache hits
    store.read(dataset.coords);            // point-query path
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

int cmd_metrics(const Args& args) {
  const std::string format = args.get("format", "prometheus");
  detail::require(format == "prometheus" || format == "json" ||
                      format == "both",
                  "--format must be prometheus, json, or both");
  const std::string trace_path = args.get("trace");
  if (!trace_path.empty()) {
    obs::TraceBuffer::global().set_enabled(true);
  }

  if (args.has("store")) {
    // Drive reads over an existing store so the scrape reflects it: one
    // cold pass (misses + fragment loads) and one warm pass (hits).
    const std::string dir = args.get("store");
    const Shape shape = store_shape(dir);
    FragmentStore store(dir, shape);
    const Box region = args.has("region") ? parse_region(args.get("region"))
                                          : Box::whole(shape);
    store.scan_region(region);
    store.scan_region(region);
  } else {
    metrics_selftest();
  }

  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  if (format == "prometheus" || format == "both") {
    std::fputs(obs::to_prometheus(snapshot).c_str(), stdout);
  }
  if (format == "json" || format == "both") {
    std::fputs(obs::to_json(snapshot).c_str(), stdout);
  }

  if (!trace_path.empty()) {
    const std::vector<obs::SpanRecord> spans =
        obs::TraceBuffer::global().snapshot();
    std::ofstream out(trace_path);
    detail::require(static_cast<bool>(out),
                    "cannot open trace output: " + trace_path);
    out << obs::trace_to_chrome(spans);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(),
                 trace_path.c_str());
  }
  return 0;
}

/// serve-selftest --chaos: layered failure drill for the deadline,
/// cancellation, and store-health subsystems, run against a throwaway
/// store. Three phases:
///
///   A  slow device, tight budget: delay_ms faults armed on the read path
///      while a session with a short per-op deadline scans a cold store.
///      Every op must end in bounded time — success, a typed
///      DeadlineExceededError, or a partial result with skipped fragments —
///      and at least one deadline trip must be observed (proof the budget
///      actually cut a stalled read short).
///   B  full device: persistent ENOSPC on the commit path until the store
///      degrades to read-only. Degraded writes must fail fast with
///      StoreDegradedError (no retry backoff, no syscalls), reads must
///      keep serving, and once the fault clears a health probe must
///      recover the store so writes succeed again.
///   C  cancellation storm under load: worker threads scan through shared
///      sessions (one tenant tightly quota'd, some sessions deadlined)
///      while the main thread cancels half the sessions mid-flight and a
///      consolidator churns generations. Every op must terminate, and the
///      workers' admitted/rejected tallies must match the
///      AdmissionController's axis accounting with zero in-flight leaks.
///      An ARTSPARSE_FAULT_SPEC from the environment is applied on top
///      for this phase, so CI can mix in arbitrary errno/delay faults.
///
/// A wall-clock watchdog fails the run if the whole drill overruns its
/// budget — a wedged wait is exactly the regression chaos mode exists to
/// catch. Exits nonzero on any failed invariant.
int cmd_serve_selftest_chaos(const Args& args) {
  const unsigned threads = static_cast<unsigned>(
      std::stoul(args.get("threads", "4")));
  const std::size_t ops = std::stoull(args.get("ops", "40"));
  const double watchdog_sec = std::stod(args.get("watchdog-sec", "180"));
  detail::require(threads >= 2, "--chaos wants --threads >= 2");
  WallTimer watchdog;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("artsparse_chaos_" + std::to_string(::getpid()));
  std::error_code cleanup_ec;
  std::filesystem::remove_all(dir, cleanup_ec);

  FaultInjector& faults = FaultInjector::instance();
  std::vector<std::string> problems;
  std::uint64_t deadline_trips = 0;
  std::uint64_t degraded_rejections = 0;
  std::uint64_t cancelled_ops = 0;
  struct TenantCounts {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected{0};
  };
  TenantCounts alpha_counts;
  TenantCounts beta_counts;
  TenantAdmissionStats alpha_stats;
  TenantAdmissionStats beta_stats;
  StoreHealth final_health = StoreHealth::kHealthy;

  {
    // Setup runs fault-free: the drill arms its own faults per phase.
    faults.reset();
    const Shape shape = parse_shape("96,96");
    FragmentStore store(dir, shape);
    store.set_health_policy(
        HealthPolicy{/*degrade_after=*/2, /*probe_interval_sec=*/0.02});
    const SparseDataset dataset =
        make_dataset(shape, calibrate_gsp(0.05), 11);
    const std::size_t chunk = std::max<std::size_t>(
        1, dataset.point_count() / 4);
    for (std::size_t lo = 0; lo < dataset.point_count(); lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, dataset.point_count());
      CoordBuffer part(shape.rank());
      for (std::size_t i = lo; i < hi; ++i) {
        part.append(dataset.coords.point(i));
      }
      store.write(part,
                  std::span<const value_t>(dataset.values.data() + lo,
                                           hi - lo),
                  OrgKind::kGcsr);
    }

    Service service(store, TenantQuota{});  // alpha: unlimited
    service.admission().set_quota(
        "beta", TenantQuota{/*ops_per_sec=*/25.0, /*bytes_per_sec=*/0.0,
                            /*max_concurrent=*/2});
    const Box region({8, 8}, {72, 72});

    // --- Phase A: delay faults vs a 10 ms per-op deadline. Runs before
    // any scan so the fragment cache is cold and reads genuinely hit the
    // (stalled) device.
    for (std::size_t nth = 1; nth <= 64; ++nth) {
      faults.arm_delay(FaultOp::kRead, nth, 25);
      faults.arm_delay(FaultOp::kOpenRead, nth, 25);
    }
    Session deadlined = service.session("alpha").with_deadline_ms(10);
    for (int i = 0; i < 6; ++i) {
      WallTimer op_timer;
      try {
        const ReadResult result = deadlined.scan(region);
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        if (!result.skipped.empty()) ++deadline_trips;
      } catch (const DeadlineExceededError&) {
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        ++deadline_trips;
      } catch (const OverloadedError&) {
        alpha_counts.rejected.fetch_add(1, std::memory_order_relaxed);
      }
      // 10 ms budget + one 25 ms delay slice + slack: anything slower
      // means a wait somewhere ignored the deadline.
      if (op_timer.seconds() > 2.0) {
        problems.push_back("phase A: deadlined scan took " +
                           std::to_string(op_timer.seconds()) + " s");
      }
    }
    if (deadline_trips == 0) {
      problems.push_back(
          "phase A: no scan tripped its deadline despite armed delays");
    }
    faults.reset();

    // --- Phase B: persistent ENOSPC until the store degrades, then
    // recovery once the device "frees up".
    for (std::size_t nth = 1; nth <= 64; ++nth) {
      faults.arm(FaultOp::kOpenWrite, nth, ENOSPC);
    }
    Session writer = service.session("alpha");
    CoordBuffer one_point(shape.rank());
    one_point.append({1, 2});
    const value_t one_value[] = {7.0};
    bool degraded = false;
    for (int i = 0; i < 8 && !degraded; ++i) {
      try {
        writer.write(one_point, one_value, OrgKind::kCoo);
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        problems.push_back("phase B: write succeeded under full-disk fault");
        break;
      } catch (const StoreDegradedError&) {
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        degraded = true;
      } catch (const IoError&) {
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!degraded || store.health() != StoreHealth::kDegraded) {
      problems.push_back("phase B: store did not degrade under ENOSPC");
    } else {
      // Degraded writes must fail fast (no backoff, no syscalls).
      WallTimer reject_timer;
      try {
        writer.write(one_point, one_value, OrgKind::kCoo);
        problems.push_back("phase B: degraded write succeeded");
      } catch (const StoreDegradedError&) {
        ++degraded_rejections;
      }
      alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
      if (reject_timer.seconds() > 0.5) {
        problems.push_back("phase B: degraded write was not fail-fast");
      }
      // Reads keep serving while degraded.
      try {
        writer.scan(region);
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
      } catch (const Error& e) {
        alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        problems.push_back(std::string("phase B: degraded read failed: ") +
                           e.what());
      }
      // Device clears: the probe must bring the store back.
      faults.reset();
      if (store.probe_health() != StoreHealth::kHealthy) {
        problems.push_back("phase B: probe did not recover the store");
      } else {
        try {
          writer.write(one_point, one_value, OrgKind::kCoo);
          alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error& e) {
          alpha_counts.admitted.fetch_add(1, std::memory_order_relaxed);
          problems.push_back(
              std::string("phase B: post-recovery write failed: ") +
              e.what());
        }
      }
    }
    faults.reset();

    // --- Phase C: cancellation storm. Honor any environment fault spec on
    // top so CI can mix in extra errno/delay chaos.
    faults.configure_from_env();
    std::vector<Session> sessions;
    for (unsigned t = 0; t < threads; ++t) {
      Session session = service.session(t % 2 == 0 ? "alpha" : "beta");
      // Odd sessions also carry a budget, so admission waits and scans
      // race deadlines as well as cancellation.
      sessions.push_back(t % 2 == 0 ? session
                                    : session.with_deadline_ms(50));
    }
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> cancelled_seen{0};
    // Rendezvous so the cancel deterministically lands mid-storm: every
    // worker proves the storm is live (one completed op), the main thread
    // cancels the even sessions, and only then do workers run the rest.
    std::atomic<unsigned> warmed_up{0};
    std::atomic<bool> cancel_issued{false};
    // artsparse-lint: allow(ASL003)
    std::thread consolidator([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          store.consolidate(OrgKind::kSortedCoo);
        } catch (const Error&) {
          // Injected faults may fail a consolidation pass; the next one
          // retries. Health bookkeeping is phase B's subject, not C's.
        }
        interruptible_sleep(0.010);
      }
    });
    std::vector<std::thread> workers;  // artsparse-lint: allow(ASL003)
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Session& session = sessions[t];
        TenantCounts& counts = t % 2 == 0 ? alpha_counts : beta_counts;
        for (std::size_t i = 0; i < ops; ++i) {
          try {
            session.scan(region);
            counts.admitted.fetch_add(1, std::memory_order_relaxed);
          } catch (const OverloadedError&) {
            counts.rejected.fetch_add(1, std::memory_order_relaxed);
          } catch (const CancelledError&) {
            counts.admitted.fetch_add(1, std::memory_order_relaxed);
            cancelled_seen.fetch_add(1, std::memory_order_relaxed);
          } catch (const Error&) {
            // Deadline trips and injected I/O faults: admitted, failed.
            counts.admitted.fetch_add(1, std::memory_order_relaxed);
          }
          if (i == 0) {
            warmed_up.fetch_add(1, std::memory_order_relaxed);
            while (!cancel_issued.load(std::memory_order_acquire)) {
              interruptible_sleep(0.001);
            }
          }
        }
      });
    }
    // Once every worker has one op behind it, cancel half the sessions;
    // the even sessions' remaining ops must all observe the cancel.
    while (warmed_up.load(std::memory_order_relaxed) < threads) {
      interruptible_sleep(0.001);
    }
    for (unsigned t = 0; t < threads; t += 2) {
      sessions[t].cancel();
    }
    cancel_issued.store(true, std::memory_order_release);
    // artsparse-lint: allow(ASL003)
    for (std::thread& worker : workers) worker.join();
    stop.store(true, std::memory_order_relaxed);
    consolidator.join();
    faults.reset();

    cancelled_ops = cancelled_seen.load(std::memory_order_relaxed);
    if (cancelled_ops == 0) {
      problems.push_back("phase C: no op observed its session's cancel");
    }
    alpha_stats = service.admission().stats("alpha");
    beta_stats = service.admission().stats("beta");
    if (alpha_stats.admitted != alpha_counts.admitted.load() ||
        alpha_stats.rejected() != alpha_counts.rejected.load() ||
        beta_stats.admitted != beta_counts.admitted.load() ||
        beta_stats.rejected() != beta_counts.rejected.load()) {
      problems.push_back("admission accounting mismatch");
    }
    if (alpha_stats.in_flight != 0 || beta_stats.in_flight != 0) {
      problems.push_back("admission slot leaked (in_flight != 0)");
    }
    final_health = store.health();
    if (final_health != StoreHealth::kHealthy) {
      problems.push_back("store not healthy at end of drill");
    }
  }
  std::filesystem::remove_all(dir, cleanup_ec);

  if (watchdog.seconds() > watchdog_sec) {
    problems.push_back("watchdog: drill exceeded " +
                       std::to_string(watchdog_sec) + " s");
  }
  const bool ok = problems.empty();

  if (args.has("json")) {
    std::printf(
        "{\"ok\": %s, \"mode\": \"chaos\", \"threads\": %u, "
        "\"ops_per_thread\": %zu,\n"
        " \"deadline_trips\": %llu, \"degraded_rejections\": %llu, "
        "\"cancelled_ops\": %llu,\n"
        " \"final_health\": \"%s\", \"elapsed_sec\": %.3f,\n"
        " \"problems\": [",
        ok ? "true" : "false", threads, ops,
        static_cast<unsigned long long>(deadline_trips),
        static_cast<unsigned long long>(degraded_rejections),
        static_cast<unsigned long long>(cancelled_ops),
        to_string(final_health), watchdog.seconds());
    for (std::size_t i = 0; i < problems.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", problems[i].c_str());
    }
    std::printf("]}\n");
  } else {
    std::printf(
        "serve-selftest --chaos: %s (%.1f s)\n"
        "  deadline trips: %llu, degraded rejections: %llu, cancelled "
        "ops: %llu, final health: %s\n",
        ok ? "ok" : "FAILED", watchdog.seconds(),
        static_cast<unsigned long long>(deadline_trips),
        static_cast<unsigned long long>(degraded_rejections),
        static_cast<unsigned long long>(cancelled_ops),
        to_string(final_health));
    for (const std::string& problem : problems) {
      std::printf("  problem: %s\n", problem.c_str());
    }
  }
  return ok ? 0 : 1;
}

/// Multi-tenant service stress mode: hammers a throwaway store through the
/// service layer from several threads (two tenants, one of them tightly
/// quota'd) while consolidation runs concurrently, then cross-checks
///   - every request the workers saw admitted/rejected is accounted
///     identically by the AdmissionController (the CI gate),
///   - Snapshot::scan_batch matched sequential scan_region byte for byte,
///   - no admission slot leaked (in_flight back to 0).
/// Exits nonzero on any mismatch. With --chaos, runs the failure drill
/// above instead.
int cmd_serve_selftest(const Args& args) {
  if (args.has("chaos")) return cmd_serve_selftest_chaos(args);
  const unsigned threads = static_cast<unsigned>(
      std::stoul(args.get("threads", "4")));
  const std::size_t ops = std::stoull(args.get("ops", "150"));
  detail::require(threads >= 1, "--threads must be >= 1");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("artsparse_serve_" + std::to_string(::getpid()));
  std::error_code cleanup_ec;
  std::filesystem::remove_all(dir, cleanup_ec);

  int failures = 0;
  std::size_t batch_mismatches = 0;
  std::uint64_t generation_start = 0;
  std::uint64_t generation_end = 0;
  struct TenantCounts {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected{0};
  };
  TenantCounts alpha_counts;
  TenantCounts beta_counts;
  TenantAdmissionStats alpha_stats;
  TenantAdmissionStats beta_stats;
  BatchStats batch_stats;

  {
    const Shape shape = parse_shape("96,96");
    FragmentStore store(dir, shape);
    const SparseDataset dataset =
        make_dataset(shape, calibrate_gsp(0.05), 11);
    // Several fragments so scans genuinely fan out and consolidation has
    // something to merge.
    const std::size_t chunk = std::max<std::size_t>(
        1, dataset.point_count() / 4);
    for (std::size_t lo = 0; lo < dataset.point_count(); lo += chunk) {
      const std::size_t hi = std::min(lo + chunk, dataset.point_count());
      CoordBuffer part(shape.rank());
      for (std::size_t i = lo; i < hi; ++i) {
        part.append(dataset.coords.point(i));
      }
      store.write(part,
                  std::span<const value_t>(dataset.values.data() + lo,
                                           hi - lo),
                  OrgKind::kGcsr);
    }
    generation_start = store.generation();

    Service service(store, TenantQuota{});  // alpha: unlimited
    // beta: tight enough that a multi-threaded run must bounce requests.
    service.admission().set_quota(
        "beta", TenantQuota{/*ops_per_sec=*/25.0, /*bytes_per_sec=*/0.0,
                            /*max_concurrent=*/2});

    // Probe: Snapshot::scan_batch must be byte-identical to scan_region.
    std::vector<Box> regions;
    for (index_t lo = 0; lo + 40 <= 96; lo += 16) {
      regions.push_back(Box({lo, lo / 2}, {lo + 39, lo / 2 + 39}));
    }
    const std::vector<ReadResult> batched =
        store.snapshot().scan_batch(regions);
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const ReadResult sequential = store.scan_region(regions[i]);
      if (batched[i].values != sequential.values ||
          batched[i].coords != sequential.coords) {
        ++batch_mismatches;
      }
    }

    // Stress: workers alternate tenants; consolidation runs concurrently.
    // Raw threads on purpose: the selftest drives the service the way an
    // external client would, from threads the store's own parallel_for
    // machinery knows nothing about.
    std::atomic<bool> stop{false};
    // artsparse-lint: allow(ASL003)
    std::thread consolidator([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        store.consolidate(OrgKind::kSortedCoo);
        interruptible_sleep(0.010);
      }
    });
    std::vector<std::thread> workers;  // artsparse-lint: allow(ASL003)
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Session session =
            service.session(t % 2 == 0 ? "alpha" : "beta");
        TenantCounts& counts = t % 2 == 0 ? alpha_counts : beta_counts;
        const Box region({8, 8}, {72, 72});
        for (std::size_t i = 0; i < ops; ++i) {
          try {
            session.scan(region);
            counts.admitted.fetch_add(1, std::memory_order_relaxed);
          } catch (const OverloadedError&) {
            counts.rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // artsparse-lint: allow(ASL003)
    for (std::thread& worker : workers) worker.join();
    stop.store(true, std::memory_order_relaxed);
    consolidator.join();

    generation_end = store.generation();
    alpha_stats = service.admission().stats("alpha");
    beta_stats = service.admission().stats("beta");
    batch_stats = service.batch_stats();
  }
  std::filesystem::remove_all(dir, cleanup_ec);

  // The CI gate: what the workers observed must equal what admission
  // accounted, axis by axis, and nothing may still be in flight.
  if (alpha_stats.admitted != alpha_counts.admitted.load() ||
      alpha_stats.rejected() != alpha_counts.rejected.load() ||
      beta_stats.admitted != beta_counts.admitted.load() ||
      beta_stats.rejected() != beta_counts.rejected.load() ||
      alpha_stats.in_flight != 0 || beta_stats.in_flight != 0 ||
      batch_mismatches != 0) {
    failures = 1;
  }

  if (args.has("json")) {
    std::printf(
        "{\"ok\": %s, \"threads\": %u, \"ops_per_thread\": %zu,\n"
        " \"generation\": {\"start\": %llu, \"end\": %llu},\n"
        " \"tenants\": {\n"
        "  \"alpha\": {\"admitted\": %llu, \"admitted_accounted\": %llu, "
        "\"rejected\": %llu, \"rejected_accounted\": %llu, "
        "\"in_flight\": %zu},\n"
        "  \"beta\": {\"admitted\": %llu, \"admitted_accounted\": %llu, "
        "\"rejected\": %llu, \"rejected_accounted\": %llu, "
        "\"in_flight\": %zu}},\n"
        " \"batch\": {\"batches\": %llu, \"requests\": %llu, "
        "\"max_batch\": %llu, \"mismatches\": %zu}}\n",
        failures == 0 ? "true" : "false", threads, ops,
        static_cast<unsigned long long>(generation_start),
        static_cast<unsigned long long>(generation_end),
        static_cast<unsigned long long>(alpha_counts.admitted.load()),
        static_cast<unsigned long long>(alpha_stats.admitted),
        static_cast<unsigned long long>(alpha_counts.rejected.load()),
        static_cast<unsigned long long>(alpha_stats.rejected()),
        alpha_stats.in_flight,
        static_cast<unsigned long long>(beta_counts.admitted.load()),
        static_cast<unsigned long long>(beta_stats.admitted),
        static_cast<unsigned long long>(beta_counts.rejected.load()),
        static_cast<unsigned long long>(beta_stats.rejected()),
        beta_stats.in_flight,
        static_cast<unsigned long long>(batch_stats.batches),
        static_cast<unsigned long long>(batch_stats.requests),
        static_cast<unsigned long long>(batch_stats.max_batch),
        batch_mismatches);
  } else {
    std::printf(
        "serve-selftest: %s (%u threads x %zu ops, generation %llu -> "
        "%llu)\n"
        "  alpha: %llu admitted, %llu rejected (accounting %s)\n"
        "  beta:  %llu admitted, %llu rejected (accounting %s)\n"
        "  batches: %llu for %llu requests (max %llu), %zu result "
        "mismatches\n",
        failures == 0 ? "ok" : "FAILED", threads, ops,
        static_cast<unsigned long long>(generation_start),
        static_cast<unsigned long long>(generation_end),
        static_cast<unsigned long long>(alpha_counts.admitted.load()),
        static_cast<unsigned long long>(alpha_counts.rejected.load()),
        alpha_stats.admitted == alpha_counts.admitted.load() ? "ok"
                                                             : "MISMATCH",
        static_cast<unsigned long long>(beta_counts.admitted.load()),
        static_cast<unsigned long long>(beta_counts.rejected.load()),
        beta_stats.admitted == beta_counts.admitted.load() ? "ok"
                                                           : "MISMATCH",
        static_cast<unsigned long long>(batch_stats.batches),
        static_cast<unsigned long long>(batch_stats.requests),
        static_cast<unsigned long long>(batch_stats.max_batch),
        batch_mismatches);
  }
  return failures;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.command == "generate") return cmd_generate(args);
  if (args.command == "import") return cmd_import(args);
  if (args.command == "read") return cmd_read(args, false);
  if (args.command == "scan") return cmd_read(args, true);
  if (args.command == "info") return cmd_info(args);
  if (args.command == "advise") return cmd_advise(args);
  if (args.command == "consolidate") return cmd_consolidate(args);
  if (args.command == "export") return cmd_export(args);
  if (args.command == "check") return cmd_check(args);
  if (args.command == "repair") return cmd_repair(args);
  if (args.command == "metrics") return cmd_metrics(args);
  if (args.command == "serve-selftest") return cmd_serve_selftest(args);
  return usage();
}

}  // namespace
}  // namespace artsparse::cli

int main(int argc, char** argv) {
  try {
    return artsparse::cli::run(argc, argv);
  } catch (const artsparse::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
