// Shared pieces of the end-to-end benchmark: run options, sample
// statistics, the per-run record every workload fills, the span recorder
// and layer replay of traced runs, result checks, and the seeded cell
// universe the scan and service workloads draw from.
//
// Everything here drives the library through its public API only; the
// per-layer numbers come from timing calls into each layer's public
// functions from this side of the API, never from inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "artsparse.hpp"

namespace artsparse::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;  ///< measured time of one run
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool smoke = false;     ///< ~1 s per workload, any build type
  /// service_mix only: every client in a closed loop, to measure the
  /// saturation its offered rates are set from.
  bool saturate = false;
  std::filesystem::path work_dir;
};

/// Set-ups per run; setup_s is their median, so work moved into set-up
/// shows without one slow file-system call deciding the number.
inline int setup_repetitions(const Options& options) {
  return options.trace || options.smoke ? 1 : 5;
}

/// One op in kReplayEvery of a traced run is replayed layer by layer.
inline constexpr std::uint64_t kReplayEvery = 16;

/// Measured values with nearest-rank quantiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;
  double mean() const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// One reported number. `samples` is how many measurements it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Ops attempted and failed, by one client or a whole run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< failed ops whose output was wrong
  std::vector<std::string> errors;  ///< first few failure messages

  void error(const std::string& what);     ///< the op threw
  void mismatch(const std::string& what);  ///< the op returned wrong data
  void append(const Outcome& other);
  bool correct() const { return mismatches == 0; }
};

/// The outcome of one workload run.
struct RunRecord {
  std::string workload;
  Outcome outcome;
  std::vector<Metric> end_to_end;  ///< BENCHMARK.json "end_to_end"
  std::vector<Metric> layers;      ///< BENCHMARK.json "per_layer"
  std::vector<Metric> extras;      ///< workload-specific, not gated
};

// ---------------------------------------------------------------------------
// Per-op tallies.
// ---------------------------------------------------------------------------

/// Reads of one kind: latency plus the ReadBreakdown each call returned.
struct ReadTally {
  Samples latency_ms;
  Samples unattributed_ms;  ///< latency minus the returned breakdown
  double seconds = 0.0;     ///< summed latency
  double discover = 0.0, extract = 0.0, query = 0.0, merge = 0.0;
  std::uint64_t hits = 0, misses = 0, fragments = 0, ops = 0;

  void add(const ReadResult& result, double latency_seconds);
  void append(const ReadTally& other);
};

/// Writes: latency plus the WriteBreakdown each call returned.
struct WriteTally {
  Samples latency_ms;
  Samples build_ms, reorg_ms, commit_ms, others_ms, build_sort_ms;
  std::map<OrgKind, std::pair<double, std::size_t>> build_by_org;
  std::uint64_t io_retries = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t points = 0;

  void add(const WriteResult& result, double latency_seconds, OrgKind org);
  void append(const WriteTally& other);
};

// ---------------------------------------------------------------------------
// Tracing: spans in memory, written as a Chrome trace at exit.
// ---------------------------------------------------------------------------

class SpanRecorder {
 public:
  /// One lane per client thread; a lane is only touched by its thread.
  explicit SpanRecorder(std::size_t lanes);

  void record(std::size_t lane, const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t op);

  /// Child spans of one read from the breakdown it returned, laid end to
  /// end from `start` (the breakdown gives durations, not start times).
  void record_breakdown(std::size_t lane, Clock::time_point start,
                        const ReadBreakdown& times, std::uint64_t op);

  void write_chrome_trace(const std::filesystem::path& path) const;
  std::size_t span_count() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t duration_ns;
    std::uint64_t op;
  };
  std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<std::vector<Span>> lanes_;
};

/// Kernel cost per organization: seconds spent and units processed
/// (hits for scan_box, queries for read, points for build).
using KernelCost = std::map<OrgKind, std::pair<double, std::size_t>>;

/// Per-layer timings gathered by replays, shared by all clients.
struct LayerProfile {
  std::mutex mutex;
  Samples discover_us, load_ms, merge_ms, spawn_us, admit_us;
  Samples fragment_bytes;  ///< decoded size of each fragment a replay got
  KernelCost scan_box, read;
  std::uint64_t replays = 0;
  std::uint64_t skipped = 0;  ///< replays skipped: generation moved on
};

/// One measured phase. A traced phase records spans and replays every
/// kReplayEvery-th op; an untraced phase does neither.
struct Phase {
  double seconds = 0.0;
  SpanRecorder* spans = nullptr;
  LayerProfile* profile = nullptr;

  bool traced() const { return spans != nullptr; }
  /// Picks ops by a hash of their id, so a workload whose ops repeat in a
  /// fixed pattern still gets every kind of op replayed.
  bool replay_due(std::uint64_t op) const {
    return traced() && SplitMix64(op).next() % kReplayEvery == 0;
  }
};

/// A bench-owned admission controller with the op's tenant quota, so the
/// replay can price admission without touching the service under test.
struct ShadowAdmission {
  ShadowAdmission(std::string tenant_name, const TenantQuota& quota)
      : tenant(std::move(tenant_name)) {
    controller.set_quota(tenant, quota);
  }
  AdmissionController controller;
  std::string tenant;
};

/// Re-runs a scan layer by layer against the snapshot the op read:
/// Manifest::discover, FragmentCache::get per entry, scan_box per
/// fragment, the linearize + sort_permutation + gather merge, an empty
/// parallel_for_each over the fragments, one load_open_fragment, and
/// admit + charge_bytes on `shadow`. Returns false unless the replayed
/// result equals `op` byte for byte.
bool replay_scan(const Snapshot& snapshot, const Box& box,
                 const ValueRange& range, const ReadResult& op,
                 ShadowAdmission& shadow, LayerProfile& profile,
                 SpanRecorder* spans, std::size_t lane, std::uint64_t op_id);

/// The same for a point read (format->read instead of scan_box).
bool replay_read(const Snapshot& snapshot, const CoordBuffer& queries,
                 const ReadResult& op, ShadowAdmission& shadow,
                 LayerProfile& profile, SpanRecorder* spans,
                 std::size_t lane, std::uint64_t op_id);

// ---------------------------------------------------------------------------
// Result checks. Each returns an empty string when the result is right.
// ---------------------------------------------------------------------------

/// Every point inside `box`, addresses ascending (strictly when `unique`),
/// floor(value) == address and the value inside `range`, and exactly
/// `expected_distinct` distinct addresses.
std::string check_scan(const ReadResult& result, const Box& box,
                       const Shape& shape, const ValueRange& range,
                       bool unique, std::size_t expected_distinct);

/// `result` holds exactly the points `expected` lists, as (address,
/// value) pairs in ascending address order.
std::string check_exact(
    const ReadResult& result, const Shape& shape,
    const std::vector<std::pair<index_t, value_t>>& expected);

// ---------------------------------------------------------------------------
// The cell universe of the scan and service workloads.
// ---------------------------------------------------------------------------

/// A tensor cut into equal blocks, each cell kept with probability `fill`
/// (seeded). One block becomes one fragment. Values are the cell's
/// row-major address, so every read checks itself.
struct Universe {
  Shape shape;
  std::vector<Box> blocks;
  std::vector<std::vector<index_t>> addresses;  ///< per block, ascending
  std::vector<index_t> all;                     ///< every cell, ascending

  std::size_t point_count() const { return all.size(); }
  bool contains(index_t address) const;
  /// Cells inside `box` whose address lies in `range`.
  std::size_t count_in(const Box& box, const ValueRange& range) const;
};

Universe make_universe(const Shape& shape, index_t block_x, index_t block_y,
                       index_t block_z, double fill, std::uint64_t seed);

/// The write payload of addresses (shuffled, as a client would send
/// unsorted points) with value = address + version / 1024.
void make_payload(const std::vector<index_t>& addresses, const Shape& shape,
                  std::uint64_t version, std::uint64_t shuffle_seed,
                  CoordBuffer& coords, std::vector<value_t>& values);

/// A random box of edge `edge` inside `shape`.
Box random_box(Xoshiro256& rng, const Shape& shape, index_t edge);

// ---------------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------------

/// Inputs of the per-layer metrics; every workload reports the full list,
/// with 0 where it bypasses a layer (counts, ratios and rates only).
struct LayerInputs {
  const ReadTally* scans = nullptr;   ///< the workload's box scans
  const ReadTally* reads = nullptr;   ///< all read ops (for cache stats)
  const WriteTally* writes = nullptr;
  const LayerProfile* profile = nullptr;
  std::uint64_t evictions = 0;
  double working_set_bytes = 0.0;  ///< decoded bytes the reads range over
  BatchStats batch;
  std::uint64_t rejected = 0;
  Samples consolidate_s;
  double rewritten_bytes = 0.0;
  double scan_slowdown = 0.0;  ///< p50 during consolidation / overall
  double overhead_pct = 0.0;
};

std::vector<Metric> layer_metrics(const LayerInputs& in);

/// The end-to-end list, in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const Samples& setup_s,
                                       double bytes_per_point);

/// Appends to the extras the end-to-end numbers BENCHMARK.json does not
/// gate: completed ops/s, peak RSS, the scan and write latency medians
/// and, for each latency, the highest of p99.9/p99/p95/p90 that has at
/// least ten samples beyond it, named after it ("scan_p99_ms"). Over ten
/// seeds each of them spread by more than the 10% a bound may be
/// (README.md).
void add_ungated(RunRecord& record, double ops_per_s, const Samples& scan_ms,
                 const Samples& write_ms);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Decoded bytes of every fragment of `snapshot`, loaded directly so the
/// store's cache and its counters stay untouched.
double decoded_bytes(const Snapshot& snapshot);

/// Writes the spans to <work dir>/trace_<workload>.json.
void write_trace(const Options& options, const SpanRecorder& spans);

/// Tracing overhead: traced p50 over untraced p50, in percent.
inline double overhead_pct(const Samples& untraced, const Samples& traced) {
  const double base = untraced.median();
  return base > 0.0 ? (traced.median() / base - 1.0) * 100.0 : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

RunRecord run_paper_grid(const Options& options);
RunRecord run_scan_hot(const Options& options);
RunRecord run_scan_cold(const Options& options);
RunRecord run_service_mix(const Options& options);

}  // namespace artsparse::e2e
