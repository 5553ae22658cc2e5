// OpenFragment + FragmentCache: the shared resolution layer of the read
// path. Every read-side entry point of FragmentStore turns a fragment
// *file* into an OpenFragment — the decoded SparseFormat index plus the
// slot-ordered value buffer — exactly once, and serves repeated reads over
// a hot store from memory. This is the open-array cache production fragment
// stores (TileDB and friends) ship: Algorithm 3 pays one open + full decode
// per overlapping fragment per query; amortizing that across queries is
// where repeated-read throughput comes from.
//
// Thread safety: FragmentCache is fully thread-safe (one mutex around the
// LRU book-keeping; fragment loads happen outside the lock so concurrent
// misses on *different* fragments overlap their disk I/O). An OpenFragment
// is immutable after load and shared by shared_ptr, so readers keep a
// consistent snapshot even when the entry is evicted or invalidated
// underneath them.
//
// Budget: byte-budgeted LRU. The budget comes from the constructor knob, or
// the ARTSPARSE_CACHE_BYTES environment variable, or a 256 MiB default, in
// that order of precedence. A budget of 0 disables caching (every get loads
// from disk and nothing is retained) — useful as an A/B switch in benches.
#pragma once

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/box.hpp"
#include "core/thread_safety.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"
#include "formats/format.hpp"
#include "storage/fragment.hpp"
#include "storage/throttle.hpp"

namespace artsparse {

/// A fragment resolved into its in-memory read form: the decoded
/// organization index plus the reorganized value buffer. Immutable after
/// load; safe to share across threads (SparseFormat's read-side methods are
/// const and keep no hidden state).
struct OpenFragment {
  OrgKind org = OrgKind::kCoo;
  Shape shape;
  Box bbox;
  std::unique_ptr<SparseFormat> format;  ///< decoded index, ready to query
  std::vector<value_t> values;           ///< slot-ordered (post-map)
  std::size_t point_count = 0;
  std::size_t file_bytes = 0;    ///< encoded size on disk
  std::size_t memory_bytes = 0;  ///< what this entry charges to the budget
};

/// Resolves checked fragment bytes into an OpenFragment: decodes the index
/// section unless the codec is identity, loads the format through
/// load_format() and copies the values out. The one function that turns
/// fragment bytes into a loaded index; reads (through the cache),
/// `artsparse check` and the fuzz harness all open fragments with it.
/// Throws artsparse::Error when the codec or the format rejects the index.
OpenFragment open_fragment(const FragmentView& view);

/// Reads `path` through the (possibly throttled) device model, checks it
/// with view_fragment() and opens it with open_fragment().
std::shared_ptr<const OpenFragment> load_open_fragment(
    const std::string& path, const DeviceModel& model);

/// Point-in-time cache counters. Cumulative counters (hits, misses,
/// evictions, invalidations) survive invalidation; open_* describe the
/// current residents.
///
/// Relationship to artsparse::obs: every event counted here is also
/// published to the process-wide metrics registry (artsparse_cache_*), so
/// CacheStats is this instance's view of the same stream the registry
/// aggregates across all caches. reset_stats() zeroes only this
/// instance's view; obs::registry().reset() zeroes only the registry's —
/// the two are independent cursors over one event stream.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;          ///< fragments loaded from disk
  std::size_t evictions = 0;       ///< entries dropped to satisfy the budget
  std::size_t invalidations = 0;   ///< entries dropped by writes/clears
  std::size_t open_count = 0;      ///< resident fragments right now
  std::size_t open_bytes = 0;      ///< resident bytes right now
  std::size_t pinned_bytes = 0;    ///< bytes held by in-flight batch reads
  std::size_t budget_bytes = 0;
};

/// Thread-safe, byte-budgeted LRU cache of OpenFragments, keyed by an
/// opaque string — plain file paths for direct callers, or the manifest
/// layer's generation-tagged "<path>@g<N>" keys, which make it impossible
/// for a recycled or rewritten path to ever serve stale bytes. One
/// instance per FragmentStore, so invalidation never crosses stores.
class FragmentCache {
 public:
  /// 256 MiB; roomy for the bench grids, small next to a real server.
  static constexpr std::size_t kDefaultBudgetBytes = 256u << 20;

  /// Budget of the ARTSPARSE_CACHE_BYTES environment variable when set and
  /// parseable, else kDefaultBudgetBytes.
  static std::size_t budget_from_env();

  explicit FragmentCache(std::size_t budget_bytes = budget_from_env());

  /// Releases the residents' share of the process-wide obs gauges
  /// (artsparse_cache_open_bytes / _open_fragments).
  ~FragmentCache();

  /// One resolution through the cache.
  struct Lookup {
    std::shared_ptr<const OpenFragment> fragment;
    bool hit = false;
    double load_seconds = 0.0;  ///< disk + decode time paid (0 on a hit)
  };

  /// Returns the open form of `path`, loading it via `model` on a miss.
  /// Concurrent misses on the same path may both load; the first insert
  /// wins and the loser adopts it (correct, merely redundant work — the
  /// fan-out path hits distinct fragments, where loads fully overlap).
  Lookup get(const std::string& path, const DeviceModel& model);

  /// As above, but cached under `key` while loading from `path`. The
  /// manifest layer resolves entries this way with generation-tagged keys,
  /// so two fragments that ever shared a path can never share an entry.
  Lookup get(const std::string& key, const std::string& path,
             const DeviceModel& model);

  /// Drops `key` if resident. Called by the store before a path is
  /// (re)written so a recycled fragment name can never serve stale bytes.
  void invalidate(const std::string& key);

  /// Drops every resident entry (store clear/rescan/consolidate).
  void invalidate_all();

  CacheStats stats() const;
  void reset_stats();

  std::size_t budget_bytes() const { return budget_bytes_; }

  /// Pinned-bytes accounting: a batched read pins the fragments it holds
  /// decoded for the duration of the batch (positive delta on entry,
  /// matching negative on exit), so operators can see how much of the
  /// resident budget is momentarily non-reclaimable. Accounting only — the
  /// LRU does not consult it; the shared_ptr references keep the memory
  /// alive regardless of eviction. Mirrored to the
  /// artsparse_cache_pinned_bytes gauge.
  void add_pinned(std::int64_t delta);

 private:
  /// Most-recently-used at the front.
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const OpenFragment>>>;

  /// Inserts at the MRU position and evicts from the LRU end until the
  /// budget holds (the newest entry itself is never evicted, so one
  /// oversized hot fragment still caches).
  void insert_locked(const std::string& key,
                     std::shared_ptr<const OpenFragment> fragment)
      ARTSPARSE_REQUIRES(mutex_);

  const std::size_t budget_bytes_;

  mutable Mutex mutex_;
  LruList lru_ ARTSPARSE_GUARDED_BY(mutex_);
  std::unordered_map<std::string, LruList::iterator> index_
      ARTSPARSE_GUARDED_BY(mutex_);
  std::size_t open_bytes_ ARTSPARSE_GUARDED_BY(mutex_) = 0;
  std::size_t hits_ ARTSPARSE_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ ARTSPARSE_GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ ARTSPARSE_GUARDED_BY(mutex_) = 0;
  std::size_t invalidations_ ARTSPARSE_GUARDED_BY(mutex_) = 0;
  /// Batch-pinned bytes; atomic so pin/unpin never takes the LRU mutex.
  std::atomic<std::int64_t> pinned_bytes_{0};
};

}  // namespace artsparse
