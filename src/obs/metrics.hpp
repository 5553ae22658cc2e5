// artsparse::obs — the unified observability layer. One process-wide
// MetricsRegistry of named counters, gauges, and fixed-bucket histograms
// replaces the ad-hoc stats structs each subsystem used to plumb by hand
// (CacheStats, WriteBreakdown's retry counters, store sweeps, ...): the
// instrumented layers publish here, the exporters (obs/export.hpp) turn a
// snapshot into Prometheus text or JSON, and `artsparse_cli metrics`
// serves both.
//
// Naming scheme: artsparse_<area>_<name>, Prometheus conventions —
// monotonic counters end in `_total`, nanosecond sums in `_ns_total`,
// duration histograms in `_ns`. Areas in use: cache, store, read, format,
// tiled, bench, fault.
//
// Hot-path cost: metric objects are sharded — kMetricShards cache-line-
// padded atomic cells, one picked per thread — so concurrent increments
// from the parallel_for_each fan-out never contend on one cache line, and
// a scrape aggregates the shards. An increment through a cached handle
// (the ARTSPARSE_COUNT / ARTSPARSE_OBSERVE macros cache the registry
// lookup in a function-local static) is one relaxed fetch_add. Compiling
// with -DARTSPARSE_OBS=OFF (which defines ARTSPARSE_OBS_DISABLED) turns
// every macro into nothing, for an instrumentation-free build to bound
// the overhead against.
//
// Thread safety: everything here is safe to call from any thread at any
// time. Registration takes a mutex (cold path, once per call site);
// increments and observations are lock-free; snapshot() aggregates with
// relaxed loads, so a scrape concurrent with writers sees each metric at
// some recent value (counts never go backwards).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_safety.hpp"

namespace artsparse::obs {

/// Sorted-at-registration key/value pairs qualifying a metric (e.g.
/// {{"org", "gcsr"}}). Different label sets under one name are distinct
/// time series, as in Prometheus.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Shard count for per-thread striping. Power of two; 16 covers the
/// machine sizes we bench on without bloating small builds.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {

/// The shard this thread writes. Threads are assigned round-robin on
/// first use, so up to kMetricShards concurrent writers never share a
/// cache line.
std::size_t this_thread_shard();

/// One cache line holding one atomic cell, so shards never false-share.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

/// fetch_add for atomic<double> via CAS: portable to toolchains without
/// native C++20 atomic<double>::fetch_add.
inline void atomic_add_double(std::atomic<double>& target, double delta) {
  double observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    shards_[detail::this_thread_shard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent adds may or may not be included.
  std::uint64_t value() const;

  /// Zeroes every shard (between measurement runs; not atomic as a whole
  /// against concurrent adds).
  void reset();

 private:
  std::array<detail::PaddedU64, kMetricShards> shards_;
};

/// Instantaneous signed level (resident bytes, open fragments). Additive
/// across instruments: holders add() deltas, so several caches publishing
/// to one gauge sum naturally.
class Gauge {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram (Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i]; one implicit +Inf bucket past the last
/// bound). Bounds are fixed at registration; observation is a binary
/// search plus three relaxed atomic updates on this thread's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (size bounds()+1; last = +Inf bucket),
  /// non-cumulative.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const;

  void reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Default duration buckets in nanoseconds: 1µs to ~4s in powers of four,
/// spanning a cache hit through a throttled multi-second fragment commit.
const std::vector<double>& default_time_buckets_ns();

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// One metric's point-in-time state inside a MetricsSnapshot.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;
  double value = 0.0;  ///< counter / gauge reading
  // Histogram-only fields.
  std::vector<double> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< non-cumulative, +Inf last
  std::uint64_t observation_count = 0;
  double observation_sum = 0.0;
};

/// Consistent-enough scrape of every registered metric, sorted by name
/// then labels. Feed to obs::to_prometheus / obs::to_json.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// First sample matching `name` (and `labels` when given); null when
  /// absent.
  const MetricSample* find(std::string_view name,
                           const Labels& labels = {}) const;

  /// Convenience: counter/gauge value of `name`, or 0 when absent.
  double value(std::string_view name, const Labels& labels = {}) const;
};

/// The registry. Metrics register lazily on first use and live for the
/// process (references returned are stable forever), so call sites cache
/// them in function-local statics — that is what the macros below do.
class MetricsRegistry {
 public:
  /// The process-wide instance every instrumented layer publishes to.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter `name` x `labels`, registering it on first use.
  /// `help` is recorded on first registration (later calls may pass "").
  /// Throws FormatError if the name is already registered as another kind.
  Counter& counter(std::string_view name, std::string_view help = "",
                   const Labels& labels = {});

  Gauge& gauge(std::string_view name, std::string_view help = "",
               const Labels& labels = {});

  /// `bounds` must be ascending; only the first registration's bounds
  /// count. Defaults to default_time_buckets_ns().
  Histogram& histogram(std::string_view name, std::string_view help = "",
                       const Labels& labels = {},
                       const std::vector<double>& bounds =
                           default_time_buckets_ns());

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter and histogram. Gauges are deliberately left
  /// alone: they mirror live state (resident cache bytes) owned by their
  /// instruments, which a registry reset must not contradict.
  void reset();

  std::size_t metric_count() const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_create(MetricKind kind, std::string_view name,
                        std::string_view help, const Labels& labels,
                        const std::vector<double>* bounds)
      ARTSPARSE_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  /// Keyed by name + rendered labels; std::map keeps snapshots sorted.
  /// The returned Counter/Gauge/Histogram references escape the lock by
  /// design: the objects are heap-held, never erased, and internally
  /// atomic, so only the map itself needs the mutex.
  std::map<std::string, Entry> metrics_ ARTSPARSE_GUARDED_BY(mutex_);
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& registry() { return MetricsRegistry::global(); }

/// The series of one histogram whose single label takes one of N values
/// (an enum's, named by its to_string()). Each series resolves through the
/// registry on its first observation and is kept, so later ones take no
/// lock and allocate nothing. Serves ARTSPARSE_OBSERVE_ENUM.
template <std::size_t N>
class HistogramFamily {
 public:
  /// Racing first uses both register, and the registry hands both the same
  /// series.
  template <typename Enum>
  Histogram& get(std::string_view name, std::string_view label_key,
                 Enum label) {
    std::atomic<Histogram*>& slot = slots_.at(static_cast<std::size_t>(label));
    Histogram* series = slot.load(std::memory_order_acquire);
    if (series == nullptr) {
      series = &registry().histogram(
          name, "", {{std::string(label_key), to_string(label)}});
      slot.store(series, std::memory_order_release);
    }
    return *series;
  }

 private:
  std::array<std::atomic<Histogram*>, N> slots_{};
};

}  // namespace artsparse::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. The only sanctioned way to touch the registry
// from hot paths: they cache the registration lookup in a function-local
// static (one mutex hit per call site per process) and compile to nothing
// under ARTSPARSE_OBS_DISABLED. The _L variants take one label pair whose
// value varies at runtime (per-organization series) and therefore skip the
// static cache — use them where the surrounding work dwarfs a map lookup.
// ARTSPARSE_OBSERVE_ENUM is the _L form for a label that is an enum value
// below `label_count`, named by its to_string(): it caches one series per
// value, so a hot path pays no lookup after each value's first use.
// ---------------------------------------------------------------------------
#if !defined(ARTSPARSE_OBS_DISABLED)
#define ARTSPARSE_OBS_ENABLED 1

#define ARTSPARSE_COUNT(name, delta)                                \
  do {                                                              \
    static ::artsparse::obs::Counter& artsparse_obs_counter =       \
        ::artsparse::obs::registry().counter(name);                 \
    artsparse_obs_counter.add(                                      \
        static_cast<std::uint64_t>(delta));                         \
  } while (0)

#define ARTSPARSE_GAUGE_ADD(name, delta)                            \
  do {                                                              \
    static ::artsparse::obs::Gauge& artsparse_obs_gauge =           \
        ::artsparse::obs::registry().gauge(name);                   \
    artsparse_obs_gauge.add(static_cast<std::int64_t>(delta));      \
  } while (0)

#define ARTSPARSE_OBSERVE(name, value)                              \
  do {                                                              \
    static ::artsparse::obs::Histogram& artsparse_obs_histogram =   \
        ::artsparse::obs::registry().histogram(name);               \
    artsparse_obs_histogram.observe(static_cast<double>(value));    \
  } while (0)

#define ARTSPARSE_COUNT_L(name, label_key, label_value, delta)      \
  ::artsparse::obs::registry()                                      \
      .counter(name, "", {{label_key, label_value}})                \
      .add(static_cast<std::uint64_t>(delta))

#define ARTSPARSE_OBSERVE_L(name, label_key, label_value, value)    \
  ::artsparse::obs::registry()                                      \
      .histogram(name, "", {{label_key, label_value}})              \
      .observe(static_cast<double>(value))

#define ARTSPARSE_OBSERVE_ENUM(name, label_key, label_enum, label_count, \
                               value)                                    \
  do {                                                                   \
    static ::artsparse::obs::HistogramFamily<label_count>                \
        artsparse_obs_family;                                            \
    artsparse_obs_family.get(name, label_key, label_enum)                \
        .observe(static_cast<double>(value));                            \
  } while (0)

#else  // ARTSPARSE_OBS_DISABLED

// sizeof() keeps the operands name-checked (and "used" for -Wunused)
// without evaluating them, so a disabled build costs literally nothing.
// Label values count as operands: a variable that only names a series
// stays used.
#define ARTSPARSE_COUNT(name, delta) \
  do { static_cast<void>(sizeof(delta)); } while (0)
#define ARTSPARSE_GAUGE_ADD(name, delta) \
  do { static_cast<void>(sizeof(delta)); } while (0)
#define ARTSPARSE_OBSERVE(name, value) \
  do { static_cast<void>(sizeof(value)); } while (0)
#define ARTSPARSE_COUNT_L(name, label_key, label_value, delta) \
  do { static_cast<void>(sizeof(label_value) + sizeof(delta)); } while (0)
#define ARTSPARSE_OBSERVE_L(name, label_key, label_value, value) \
  do { static_cast<void>(sizeof(label_value) + sizeof(value)); } while (0)
#define ARTSPARSE_OBSERVE_ENUM(name, label_key, label_enum, label_count, \
                               value)                                    \
  do { static_cast<void>(sizeof(label_enum) + sizeof(value)); } while (0)

#endif  // ARTSPARSE_OBS_DISABLED
