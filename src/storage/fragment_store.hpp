// FragmentStore: the experiment system of Algorithm 3. A directory-backed
// store over one logical sparse tensor; WRITE packages a coordinate/value
// batch with a chosen organization into a new fragment file, READ discovers
// every fragment overlapping a query, resolves points with the
// organization-specific search, and merges results in linear-address order.
//
// The store doubles as the paper's benchmark instrument: both operations
// return the phase-by-phase time breakdowns reported in Table III and the
// discussion of Fig. 5.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/fsck.hpp"
#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/shape.hpp"
#include "core/thread_safety.hpp"
#include "core/timer.hpp"
#include "core/types.hpp"
#include "storage/compress/codec.hpp"
#include "storage/fragment_cache.hpp"
#include "storage/manifest.hpp"
#include "storage/retry.hpp"
#include "storage/rtree.hpp"
#include "storage/throttle.hpp"

namespace artsparse {

/// Outcome of one WRITE (Algorithm 3 lines 1-8).
struct WriteResult {
  std::string path;            ///< fragment file written
  std::size_t file_bytes = 0;  ///< total fragment size on disk
  std::size_t index_bytes = 0; ///< organization index size (Fig. 4 metric)
  std::size_t point_count = 0;
  WriteBreakdown times;
};

/// What the read fan-out does when one fragment fails to load or decode.
enum class ReadFaultPolicy {
  kStrict,  ///< propagate the error (default; today's behavior)
  kSkip,    ///< drop the fragment, report it in ReadResult::skipped
};

/// One fragment a kSkip read dropped, with the error that disqualified it.
struct SkippedFragment {
  std::string path;
  std::string error;
};

/// Outcome of one READ (Algorithm 3 lines 1-15): the found points, sorted
/// by ascending linear address within the store's tensor shape.
struct ReadResult {
  CoordBuffer coords;
  std::vector<value_t> values;
  std::size_t fragments_visited = 0;
  /// Fragments dropped under ReadFaultPolicy::kSkip (always empty under
  /// kStrict — those reads throw instead).
  std::vector<SkippedFragment> skipped;
  ReadBreakdown times;
};

/// Store health state machine (DESIGN.md §14). Values are severity-ordered
/// and mirrored to the artsparse_store_health gauge, so dashboards alert on
/// `> 0`. Transitions: kHealthy → kDegraded when commit failures with a
/// degradation-eligible errno (ENOSPC/EDQUOT/EIO) persist; kDegraded →
/// kRecovering while a probe write runs; then back to kHealthy (probe
/// succeeded) or kDegraded (still failing).
enum class StoreHealth : int {
  kHealthy = 0,     ///< writes and reads both served
  kRecovering = 1,  ///< degraded, recovery probe in flight
  kDegraded = 2,    ///< read-only: commit path failing persistently
};
const char* to_string(StoreHealth health);

/// Knobs of the degradation/recovery machinery.
struct HealthPolicy {
  /// Consecutive commit failures with a degradation-eligible errno
  /// (ENOSPC/EDQUOT/EIO, after the commit's own retries) before the store
  /// turns degraded-read-only.
  std::size_t degrade_after = 2;
  /// Minimum spacing between recovery probes while degraded, so a stream
  /// of rejected writes does not hammer a full device with probe traffic.
  double probe_interval_sec = 0.05;
};

/// Inclusive value interval for predicate reads. Defaults accept anything.
struct ValueRange {
  value_t min = std::numeric_limits<value_t>::lowest();
  value_t max = std::numeric_limits<value_t>::max();

  bool matches(value_t v) const { return v >= min && v <= max; }
  bool overlaps(value_t lo, value_t hi) const {
    return hi >= min && lo <= max;
  }

  static ValueRange at_least(value_t v) {
    return ValueRange{v, std::numeric_limits<value_t>::max()};
  }
  static ValueRange at_most(value_t v) {
    return ValueRange{std::numeric_limits<value_t>::lowest(), v};
  }
};

/// A pinned, immutable view of the store at one manifest generation.
///
/// Holding a Snapshot guarantees two things for as long as it lives: every
/// read through it resolves exactly the fragment set that was committed
/// when it was taken (writes, consolidation, clears, and rescans published
/// afterwards are invisible), and the underlying fragment files stay on
/// disk even if a later generation obsoleted them (deferred deletion via
/// the manifest's FragmentFile handles). Snapshots are cheap — two
/// shared_ptr copies — and safe to use from any number of threads.
///
/// Every read below is one call of the private engine run() (DESIGN.md
/// §6); they differ only in their regions, predicate and kernel.
class Snapshot {
 public:
  std::uint64_t generation() const { return manifest_->generation(); }
  std::size_t fragment_count() const { return manifest_->fragment_count(); }
  std::size_t total_file_bytes() const {
    return manifest_->total_file_bytes();
  }
  const Shape& tensor_shape() const { return shape_; }
  const Manifest& manifest() const { return *manifest_; }
  FragmentCache& cache() const { return *cache_; }

  /// Algorithm 3 READ for an arbitrary coordinate list.
  ReadResult read(const CoordBuffer& queries) const;

  /// READ over every cell of a contiguous region (one existence query per
  /// region cell, faithful to Algorithm 3).
  ReadResult read_region(const Box& region) const;

  /// Region read via the formats' native box scans: touches only stored
  /// entries, so cost tracks hits rather than region volume. A one-region
  /// scan_batch.
  ReadResult scan_region(const Box& region) const;

  /// scan_region restricted to values inside `range`. Fragments whose
  /// recorded [min, max] statistics cannot intersect the range are skipped
  /// without being opened (predicate pushdown, as TileDB/HDF5 filters do).
  ReadResult scan_region_where(const Box& region,
                               const ValueRange& range) const;

  /// Executes many box scans against this snapshot as one batch: each
  /// fragment touched by any of the regions is resolved through the cache
  /// and decoded at most once, then searched for every region that
  /// overlaps it. Results are byte-identical to calling scan_region per
  /// region, in the same order. Session::scan_batch runs it for a
  /// caller's batch of regions.
  std::vector<ReadResult> scan_batch(std::span<const Box> regions) const;

 private:
  friend class FragmentStore;
  Snapshot(std::shared_ptr<const Manifest> manifest,
           std::shared_ptr<FragmentCache> cache, Shape shape,
           DeviceModel model, ReadFaultPolicy fault_policy)
      : manifest_(std::move(manifest)),
        cache_(std::move(cache)),
        shape_(std::move(shape)),
        model_(model),
        fault_policy_(fault_policy) {}

  /// Searches one fragment for one region: appends the stored points it
  /// finds, coordinates to `points` and value slots to `slots`.
  using Kernel =
      std::function<void(const SparseFormat& format, const Box& region,
                         CoordBuffer& points, std::vector<std::size_t>& slots)>;

  /// The read engine. Discovers each region's fragments (pruned on value
  /// statistics when `range` is set), resolves each unique fragment once
  /// through the cache (counted in its pinned bytes until the call
  /// returns), runs `kernel` on it for every region that discovered it,
  /// keeps the hits whose value matches `range`, and merges each region's
  /// hits stably by linear address, fragments in write order. Applies the
  /// snapshot's read fault policy and the ambient op budget.
  std::vector<ReadResult> run(std::span<const Box> regions,
                              const std::optional<ValueRange>& range,
                              const Kernel& kernel) const;

  /// One unique fragment's share of a run(), merged in hit order.
  struct Partial;

  std::shared_ptr<const Manifest> manifest_;
  std::shared_ptr<FragmentCache> cache_;
  Shape shape_;
  DeviceModel model_;
  ReadFaultPolicy fault_policy_;
};

/// Directory-backed fragment store for one sparse tensor.
///
/// Concurrency contract: every entry point is safe to call from any
/// thread at any time, with no external synchronization. Reads
/// (read/read_region/scan_region/scan_region_where, and pinned Snapshots)
/// see an immutable manifest generation; mutating operations (write,
/// consolidate, clear, rescan) serialize among themselves on an internal
/// writer mutex and publish a new generation through the crash-consistent
/// commit path, so a consolidation or repair rescan can run under live
/// read traffic. A reader that started before a mutation completes against
/// the generation it pinned; obsoleted fragment files are unlinked only
/// after the last reader referencing them finishes (deferred deletion).
class FragmentStore {
 public:
  /// Creates/opens `directory` for a tensor of `shape`. Fragment traffic is
  /// throttled per `model`; index sections are compressed with `codec`.
  /// Reads resolve fragments through `cache` (shared so several stores can
  /// pool one budget); when null the store creates its own cache with the
  /// ARTSPARSE_CACHE_BYTES / default budget.
  FragmentStore(std::filesystem::path directory, Shape shape,
                DeviceModel model = DeviceModel::unthrottled(),
                CodecKind codec = CodecKind::kIdentity,
                std::shared_ptr<FragmentCache> cache = nullptr);

  /// Pins the current manifest generation for consistent multi-read work.
  /// See Snapshot.
  Snapshot snapshot() const;

  /// The current manifest generation: 1 after open, bumped by every
  /// publish (write, consolidate, clear, rescan). Mirrored to the
  /// artsparse_store_generation gauge, labeled by store directory.
  std::uint64_t generation() const;

  /// Algorithm 3 WRITE: builds `org`'s index over `coords`, reorganizes
  /// `values` by the build map, concatenates, and commits one fragment
  /// crash-consistently (stage at <name>.asf.tmp, fsync, rename, fsync the
  /// directory), retrying transient I/O errors per retry_policy(). The new
  /// fragment becomes visible to readers atomically, as a new generation.
  WriteResult write(const CoordBuffer& coords,
                    std::span<const value_t> values, OrgKind org);

  /// Algorithm 3 READ for an arbitrary coordinate list. This and the three
  /// reads below are one-shot snapshot() reads.
  ReadResult read(const CoordBuffer& queries) const {
    return snapshot().read(queries);
  }

  /// READ over every cell of a contiguous region (the paper's read test:
  /// origin (m/2, ...), size (m/10, ...)). Faithful to Algorithm 3: one
  /// existence query per region cell.
  ReadResult read_region(const Box& region) const {
    return snapshot().read_region(region);
  }

  /// Region read via the formats' native box scans: touches only stored
  /// entries instead of querying every cell, so cost tracks the number of
  /// hits rather than the region volume. Same results (linear-address
  /// order) as read_region.
  ReadResult scan_region(const Box& region) const {
    return snapshot().scan_region(region);
  }

  /// scan_region restricted to values inside `range`. Fragments whose
  /// recorded [min, max] statistics cannot intersect the range are skipped
  /// without being opened (predicate pushdown, as TileDB/HDF5 filters do).
  ReadResult scan_region_where(const Box& region,
                               const ValueRange& range) const {
    return snapshot().scan_region_where(region, range);
  }

  /// Consolidates the whole store into a single fragment (TileDB-style
  /// compaction): scans Box::whole through the read engine on a pinned
  /// snapshot, keeps the last of each run of equal cells in the
  /// address-sorted result (fragments merge in write order, so that is the
  /// *latest* write), rewrites with `org` (or, when unset, whatever the
  /// advisor's balanced cost model recommends for the merged data), and
  /// publishes a new generation containing only the merged fragment.
  /// Concurrent readers keep answering from the generation they pinned;
  /// the replaced fragment files are unlinked when the last such reader
  /// finishes. Returns the write result of the new fragment.
  ///
  /// The scan is always strict, whatever read_fault_policy() says: a
  /// fragment that fails to load fails the consolidation instead of being
  /// dropped. Like every read, it checks the ambient op budget
  /// (ScopedOpContext) between fragments, so a caller that installed a
  /// deadline or cancel token sees a typed error instead of a rewrite.
  WriteResult consolidate(std::optional<OrgKind> org = std::nullopt);

  /// Re-scans the directory, picking up fragments written by other store
  /// instances. Recovery sweep, check::repair_store at header depth:
  /// orphaned *.tmp files (crashed commits) are removed, and fragments
  /// failing validation (torn writes, bit rot) are renamed to
  /// *.asf.quarantine and not loaded. Stray non-fragment files are left
  /// alone. Everything swept is reported in last_scan(). Publishes a new
  /// generation; in-flight reads finish against the one they pinned.
  void rescan();

  /// What the most recent open()/rescan() validated, swept, quarantined,
  /// or left as a stray. Returns a copy: safe to call while another
  /// thread rescans.
  check::StoreReport last_scan() const;

  /// Retry schedule for transient I/O errors on the commit path.
  void set_retry_policy(const RetryPolicy& policy);
  RetryPolicy retry_policy() const;

  /// Current health (lock-free read; see StoreHealth). Degraded stores
  /// fail write()/consolidate() fast with StoreDegradedError while reads
  /// keep serving; a probe write re-admits writes automatically once the
  /// device recovers.
  StoreHealth health() const {
    return health_.load(std::memory_order_relaxed);
  }

  /// Degradation/recovery knobs (degrade_after, probe interval).
  void set_health_policy(const HealthPolicy& policy);
  HealthPolicy health_policy() const;

  /// While degraded: runs a recovery probe now, ignoring the probe
  /// interval, and returns the resulting health. Healthy stores return
  /// kHealthy without probing. Also how external supervisors force a
  /// recovery check without risking a real write.
  StoreHealth probe_health();

  /// How reads treat a fragment that fails to load: kStrict (default)
  /// throws; kSkip drops it and reports it in ReadResult::skipped, so one
  /// corrupt fragment cannot take down a whole multi-fragment query.
  /// consolidate() is always strict — merging must never silently drop
  /// data before deleting the source fragments.
  void set_read_fault_policy(ReadFaultPolicy policy) {
    read_fault_policy_.store(policy, std::memory_order_relaxed);
  }
  ReadFaultPolicy read_fault_policy() const {
    return read_fault_policy_.load(std::memory_order_relaxed);
  }

  /// Publishes an empty generation. Fragment files are unlinked once no
  /// snapshot references them (immediately, when none is held). Fragment
  /// ids are NOT recycled: a cleared store keeps numbering where it left
  /// off, so no path can ever name two different fragments.
  void clear();

  std::size_t fragment_count() const;
  const Shape& tensor_shape() const { return shape_; }
  const std::filesystem::path& directory() const { return directory_; }

  /// The open-fragment cache this store resolves reads through.
  FragmentCache& cache() const { return *cache_; }

  /// Total bytes across all fragment files (Fig. 4's file-size metric).
  std::size_t total_file_bytes() const;

 private:
  std::filesystem::path next_fragment_path()
      ARTSPARSE_REQUIRES(writer_mutex_);

  /// The current generation's manifest. Readers copy the shared_ptr under
  /// a brief mutex; writers publish a successor with publish_locked().
  std::shared_ptr<const Manifest> current_manifest() const
      ARTSPARSE_EXCLUDES(manifest_mutex_);

  /// Swaps in `entries` as generation current+1 and updates the
  /// generation gauge.
  void publish_locked(std::vector<ManifestEntry> entries)
      ARTSPARSE_REQUIRES(writer_mutex_) ARTSPARSE_EXCLUDES(manifest_mutex_);

  /// WRITE body. When `replace` is set the new manifest contains only the
  /// new fragment and every previous entry's file is doomed
  /// (consolidate's publish).
  WriteResult write_locked(const CoordBuffer& coords,
                           std::span<const value_t> values, OrgKind org,
                           bool replace) ARTSPARSE_REQUIRES(writer_mutex_);

  /// Gate at the top of every mutating commit: no-op when healthy; while
  /// degraded, probes once the probe interval elapsed, then either admits
  /// the write (recovered) or throws StoreDegradedError fast.
  void ensure_writable_locked() ARTSPARSE_REQUIRES(writer_mutex_);

  /// Stages and removes a small tmp file through the real device stack
  /// (so the fault injector and throttle apply). Success flips the store
  /// back to kHealthy; failure re-arms the probe timer. Returns success.
  bool run_probe_locked() ARTSPARSE_REQUIRES(writer_mutex_);

  /// Commit-outcome bookkeeping driving the health state machine.
  void note_commit_success_locked() ARTSPARSE_REQUIRES(writer_mutex_);
  void note_commit_failure_locked(int error_number)
      ARTSPARSE_REQUIRES(writer_mutex_);

  /// Stores the new state and mirrors it to the health gauge.
  void set_health(StoreHealth health);

  std::filesystem::path directory_;
  Shape shape_;
  DeviceModel model_;
  CodecKind codec_;
  std::shared_ptr<FragmentCache> cache_;
  std::atomic<ReadFaultPolicy> read_fault_policy_{ReadFaultPolicy::kStrict};

  /// Serializes mutating operations (write/consolidate/clear/rescan)
  /// against each other. Readers never take it. Lock order: writer_mutex_
  /// before manifest_mutex_ (publish_locked); never the reverse.
  mutable Mutex writer_mutex_;
  RetryPolicy retry_ ARTSPARSE_GUARDED_BY(writer_mutex_);
  check::StoreReport last_scan_ ARTSPARSE_GUARDED_BY(writer_mutex_);
  /// Never reset, so no path can ever name two different fragments.
  std::size_t next_id_ ARTSPARSE_GUARDED_BY(writer_mutex_) = 0;

  /// Health state machine. The state itself is atomic so readers and the
  /// gauge observe it lock-free; the bookkeeping that drives transitions
  /// lives on the commit path and is guarded by the writer mutex.
  std::atomic<StoreHealth> health_{StoreHealth::kHealthy};
  HealthPolicy health_policy_ ARTSPARSE_GUARDED_BY(writer_mutex_);
  std::size_t commit_failure_streak_ ARTSPARSE_GUARDED_BY(writer_mutex_) = 0;
  int degraded_errno_ ARTSPARSE_GUARDED_BY(writer_mutex_) = 0;
  std::chrono::steady_clock::time_point next_probe_
      ARTSPARSE_GUARDED_BY(writer_mutex_){};

  /// Guards the manifest pointer swap only (reads are a shared_ptr copy).
  mutable Mutex manifest_mutex_;
  std::shared_ptr<const Manifest> manifest_
      ARTSPARSE_GUARDED_BY(manifest_mutex_);
};

}  // namespace artsparse
