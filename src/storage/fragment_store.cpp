#include "storage/fragment_store.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <map>
#include <system_error>
#include <utility>

#include "advisor/advisor.hpp"
#include "core/deadline.hpp"
#include "core/error.hpp"
#include "core/linearize.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"
#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/fault.hpp"
#include "storage/fragment.hpp"

namespace artsparse {

namespace {

/// Fan-out grain: one element is one whole fragment (disk read + decode +
/// search), so parallelize from two fragments up.
constexpr std::size_t kFragmentGrain = 2;

/// Publishes the store's current generation as a per-directory gauge
/// series, so dashboards can watch consolidation/rescan churn per store.
void set_generation_gauge(const std::string& directory,
                          std::uint64_t generation) {
#if defined(ARTSPARSE_OBS_ENABLED)
  obs::registry()
      .gauge("artsparse_store_generation",
             "Current manifest generation, labeled by store directory",
             {{"store", directory}})
      .set(static_cast<std::int64_t>(generation));
#else
  static_cast<void>(directory);
  static_cast<void>(generation);
#endif
}

/// Publishes the store's health state (0 healthy / 1 recovering /
/// 2 degraded) as a per-directory gauge, so dashboards alert on `> 0`.
void set_health_gauge(const std::string& directory, StoreHealth health) {
#if defined(ARTSPARSE_OBS_ENABLED)
  obs::registry()
      .gauge("artsparse_store_health",
             "Store health: 0 healthy, 1 recovering, 2 degraded read-only; "
             "labeled by store directory",
             {{"store", directory}})
      .set(static_cast<std::int64_t>(health));
#else
  static_cast<void>(directory);
  static_cast<void>(health);
#endif
}

/// The scan paths' kernel: the organization's native box scan.
void box_scan(const SparseFormat& format, const Box& region,
              CoordBuffer& points, std::vector<std::size_t>& slots) {
  format.scan_box(region, points, slots);
}

/// A read's share of the cache's pinned-bytes gauge: every fragment the
/// read resolved stays counted until the read returns, a kStrict throw
/// out of the fan-out included.
class PinnedBytes {
 public:
  explicit PinnedBytes(FragmentCache& cache) : cache_(cache) {}
  PinnedBytes(const PinnedBytes&) = delete;
  PinnedBytes& operator=(const PinnedBytes&) = delete;
  ~PinnedBytes() {
    const std::int64_t total = total_.load(std::memory_order_relaxed);
    if (total != 0) cache_.add_pinned(-total);
  }

  void add(std::size_t bytes) {
    const auto delta = static_cast<std::int64_t>(bytes);
    total_.fetch_add(delta, std::memory_order_relaxed);
    cache_.add_pinned(delta);
  }

 private:
  FragmentCache& cache_;
  std::atomic<std::int64_t> total_{0};
};

/// Errnos whose persistence on the commit path degrades the store: the
/// capacity class (ENOSPC/EDQUOT) plus EIO (failing device).
bool degradation_eligible(int error_number) {
  return error_number == EIO ||
         io_errno_class(error_number) == IoErrnoClass::kCapacity;
}

/// One past N for a file named frag_N.asf (or a frag_N.asf.* leftover such
/// as its .quarantine), else 0.
std::size_t id_after(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  std::size_t id = 0;
  return std::sscanf(name.c_str(), "frag_%zu.asf", &id) == 1 ? id + 1 : 0;
}

}  // namespace

const char* to_string(StoreHealth health) {
  switch (health) {
    case StoreHealth::kHealthy:
      return "healthy";
    case StoreHealth::kRecovering:
      return "recovering";
    case StoreHealth::kDegraded:
      return "degraded";
  }
  return "?";
}

struct Snapshot::Partial {
  const ManifestEntry* entry = nullptr;
  std::vector<std::size_t> wanters;  ///< regions that discovered it, ascending
  /// Hits of every wanter, wanter after wanter: wanter k's are
  /// [ends[k-1], ends[k]), searched in query[k] seconds.
  CoordBuffer coords;
  std::vector<value_t> values;
  std::vector<std::size_t> ends;
  std::vector<double> query;
  double extract = 0.0;  ///< fragment load + decode (0 on a cache hit)
  bool cache_hit = false;
  bool skipped = false;     ///< kSkip policy dropped this fragment
  std::string skip_error;   ///< why (IoError / FormatError message)
};

// ---------------------------------------------------------------------------
// Snapshot: the read paths. Every method below sees only manifest_'s
// immutable entry list, so no locking against writers is ever needed.
// ---------------------------------------------------------------------------

std::vector<ReadResult> Snapshot::run(std::span<const Box> regions,
                                      const std::optional<ValueRange>& range,
                                      const Kernel& kernel) const {
  const std::size_t rank = shape_.rank();
  std::vector<ReadResult> results(regions.size());

  // Discover per region (Algorithm 3 line 4: pure in-memory work against
  // the pinned manifest), pruning on value statistics under a predicate.
  // Coalesce as we go: a fragment gets one Partial however many regions
  // overlap it, found through its position in the manifest.
  const ManifestEntry* const first_entry = manifest_->entries().data();
  std::vector<std::size_t> slot_of(manifest_->fragment_count(), kNotFound);
  std::vector<Partial> partials;
  std::vector<std::vector<std::size_t>> region_slots(regions.size());
  std::size_t touches = 0;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    detail::require(regions[r].rank() == rank,
                    "region rank does not match store shape");
    ARTSPARSE_COUNT("artsparse_read_queries_total", 1);
    WallTimer timer;
    std::vector<const ManifestEntry*> hits = manifest_->discover(regions[r]);
    if (range) {
      std::erase_if(hits, [&](const ManifestEntry* entry) {
        return !range->overlaps(entry->value_min, entry->value_max);
      });
    }
    results[r].times.discover = timer.seconds();
    results[r].fragments_visited = hits.size();
    touches += hits.size();
    for (const ManifestEntry* entry : hits) {
      std::size_t& slot =
          slot_of[static_cast<std::size_t>(entry - first_entry)];
      if (slot == kNotFound) {
        slot = partials.size();
        partials.emplace_back().entry = entry;
      }
      partials[slot].wanters.push_back(r);
      region_slots[r].push_back(slot);
    }
  }
  ARTSPARSE_COUNT("artsparse_batch_fragments_total", partials.size());
  ARTSPARSE_COUNT("artsparse_batch_fragments_coalesced_total",
                  touches - partials.size());

  // One worker per unique fragment (lines 6-11): resolve through the cache,
  // then search it for every region that wants it. Under kSkip a fragment
  // that fails to load or decode — or whose turn comes after the
  // operation's deadline/cancel budget is gone — is dropped and reported
  // instead of failing the whole read.
  const OpContext budget = current_op_context();
  PinnedBytes pinned(*cache_);
  parallel_for_each(
      partials.size(),
      [&](std::size_t s) {
        Partial& partial = partials[s];
        try {
          check_op_budget(budget,
                          "operation cancelled before fragment was read",
                          "deadline expired before fragment was read");
          const FragmentCache::Lookup lookup = cache_->get(
              partial.entry->cache_key, partial.entry->path(), model_);
          partial.extract = lookup.load_seconds;
          partial.cache_hit = lookup.hit;
          const OpenFragment& fragment = *lookup.fragment;
          pinned.add(fragment.memory_bytes);
          partial.coords = CoordBuffer(rank);
          CoordBuffer points(rank);
          std::vector<std::size_t> slots;
          for (const std::size_t r : partial.wanters) {
            WallTimer timer;
            points.clear();
            slots.clear();
            kernel(*fragment.format, regions[r], points, slots);
            detail::require(points.size() == slots.size(),
                            "format returned points/slots length mismatch");
            for (std::size_t k = 0; k < slots.size(); ++k) {
              detail::require(slots[k] < fragment.values.size(),
                              "format returned slot beyond value buffer");
              const value_t value = fragment.values[slots[k]];
              if (range && !range->matches(value)) continue;
              partial.coords.append(points.point(k));
              partial.values.push_back(value);
            }
            partial.ends.push_back(partial.values.size());
            partial.query.push_back(timer.seconds());
            ARTSPARSE_OBSERVE_ENUM("artsparse_format_read_ns", "org",
                                   fragment.org, kOrgKindCount,
                                   partial.query.back() * 1e9);
          }
        } catch (const Error& e) {
          if (fault_policy_ == ReadFaultPolicy::kStrict) throw;
          partial.skipped = true;
          partial.skip_error = e.what();
        }
      },
      0, kFragmentGrain);

  // Merge each region's partials in its own hit order (= fragment write
  // order), then stable-sort by linear address (lines 12-13). A fragment's
  // k-th wanter in region order is region_slots' k-th visit to it. Cache
  // accounting per region: the first wanter of a freshly loaded fragment
  // records the miss and its load time; the rest see the hit a sequential
  // replay through a warm cache would.
  std::vector<std::size_t> visits(partials.size(), 0);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    ReadResult& result = results[r];
    std::vector<index_t> flat;
    std::vector<value_t> values;
    for (const std::size_t s : region_slots[r]) {
      const Partial& partial = partials[s];
      const std::size_t k = visits[s]++;
      if (partial.skipped) {
        ARTSPARSE_COUNT("artsparse_read_fragments_skipped_total", 1);
        result.skipped.push_back(
            SkippedFragment{partial.entry->path(), partial.skip_error});
        continue;
      }
      ARTSPARSE_COUNT("artsparse_read_fragments_resolved_total", 1);
      if (!partial.cache_hit && k == 0) {
        ++result.times.cache_misses;
        result.times.extract += partial.extract;
      } else {
        ++result.times.cache_hits;
      }
      result.times.query += partial.query[k];
      const std::size_t begin = k == 0 ? 0 : partial.ends[k - 1];
      const std::size_t end = partial.ends[k];
      const std::span<const index_t> coords = partial.coords.flat();
      flat.insert(flat.end(), coords.begin() + begin * rank,
                  coords.begin() + end * rank);
      values.insert(values.end(), partial.values.begin() + begin,
                    partial.values.begin() + end);
    }

    WallTimer timer;
    const CoordBuffer found(rank, std::move(flat));
    std::vector<index_t> addresses(found.size());
    parallel_for_each(found.size(), [&](std::size_t i) {
      addresses[i] = linearize(found.point(i), shape_);
    });
    const std::vector<std::size_t> order = sort_permutation(addresses);
    result.coords = found.permuted(order);
    result.values.resize(order.size());
    parallel_for_each(order.size(), [&](std::size_t i) {
      result.values[i] = values[order[i]];
    });
    result.times.merge = timer.seconds();
  }
  return results;
}

ReadResult Snapshot::read(const CoordBuffer& queries) const {
  if (queries.empty()) {
    ReadResult result;
    result.coords = CoordBuffer(shape_.rank());
    return result;
  }
  detail::require(queries.rank() == shape_.rank(),
                  "query rank does not match store shape");
  ARTSPARSE_SPAN_TYPE read_span("store.read", "read");
  read_span.attr("queries", static_cast<std::uint64_t>(queries.size()));
  ARTSPARSE_COUNT("artsparse_read_points_total", queries.size());
  // Discovery finds the fragments overlapping the queries' bounding box;
  // the kernel is the organization-specific existence search (line 9).
  const Box query_box = Box::bounding(queries);
  const auto search = [&](const SparseFormat& format, const Box&,
                          CoordBuffer& points,
                          std::vector<std::size_t>& slots) {
    const std::vector<std::size_t> found = format.read(queries);
    for (std::size_t q = 0; q < found.size(); ++q) {
      if (found[q] == kNotFound) continue;
      points.append(queries.point(q));
      slots.push_back(found[q]);
    }
  };
  return std::move(run({&query_box, 1}, std::nullopt, search).front());
}

ReadResult Snapshot::read_region(const Box& region) const {
  detail::require(region.rank() == shape_.rank(),
                  "region rank does not match store shape");
  CoordBuffer queries(shape_.rank());
  enumerate_cells(region, queries);
  return read(queries);
}

ReadResult Snapshot::scan_region(const Box& region) const {
  ARTSPARSE_SPAN_TYPE scan_span("store.scan", "read");
  return std::move(run({&region, 1}, std::nullopt, box_scan).front());
}

ReadResult Snapshot::scan_region_where(const Box& region,
                                       const ValueRange& range) const {
  detail::require(range.min <= range.max, "value range is inverted");
  ARTSPARSE_SPAN_TYPE scan_span("store.scan", "read");
  return std::move(run({&region, 1}, range, box_scan).front());
}

std::vector<ReadResult> Snapshot::scan_batch(
    std::span<const Box> regions) const {
  if (regions.empty()) return {};
  ARTSPARSE_SPAN_TYPE batch_span("store.scan_batch", "read");
  batch_span.attr("regions", static_cast<std::uint64_t>(regions.size()));
  return run(regions, std::nullopt, box_scan);
}

// ---------------------------------------------------------------------------
// FragmentStore: manifest publication and the write side.
// ---------------------------------------------------------------------------

FragmentStore::FragmentStore(std::filesystem::path directory, Shape shape,
                             DeviceModel model, CodecKind codec,
                             std::shared_ptr<FragmentCache> cache)
    : directory_(std::move(directory)),
      shape_(std::move(shape)),
      model_(model),
      codec_(codec),
      cache_(cache ? std::move(cache)
                   : std::make_shared<FragmentCache>()) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw IoError("create_directories '" + directory_.string() +
                  "': " + ec.message());
  }
  {
    // No concurrent access during construction; locking keeps the
    // guarded-member discipline uniform for the analysis.
    const MutexLock lock(manifest_mutex_);
    manifest_ = std::make_shared<Manifest>(0, std::vector<ManifestEntry>{},
                                           shape_);
  }
  rescan();
  set_health(StoreHealth::kHealthy);  // publish the gauge series
}

Snapshot FragmentStore::snapshot() const {
  return Snapshot(current_manifest(), cache_, shape_, model_,
                  read_fault_policy());
}

std::uint64_t FragmentStore::generation() const {
  return current_manifest()->generation();
}

std::shared_ptr<const Manifest> FragmentStore::current_manifest() const {
  const MutexLock lock(manifest_mutex_);
  return manifest_;
}

void FragmentStore::publish_locked(std::vector<ManifestEntry> entries) {
  std::shared_ptr<const Manifest> previous;
  std::shared_ptr<const Manifest> next;
  {
    const MutexLock lock(manifest_mutex_);
    next = std::make_shared<Manifest>(manifest_->generation() + 1,
                                      std::move(entries), shape_);
    previous = std::exchange(manifest_, next);
  }
  ARTSPARSE_COUNT("artsparse_store_generations_published_total", 1);
  set_generation_gauge(directory_.string(), next->generation());
  // `previous` releases here; if it was the last reference, entries whose
  // files were doomed unlink now. Pinned snapshots keep them alive.
}

std::filesystem::path FragmentStore::next_fragment_path() {
  char name[32];
  std::snprintf(name, sizeof(name), "frag_%06zu.asf", next_id_++);
  return directory_ / name;
}

WriteResult FragmentStore::write(const CoordBuffer& coords,
                                 std::span<const value_t> values,
                                 OrgKind org) {
  const MutexLock lock(writer_mutex_);
  ensure_writable_locked();
  return write_locked(coords, values, org, /*replace=*/false);
}

WriteResult FragmentStore::write_locked(const CoordBuffer& coords,
                                        std::span<const value_t> values,
                                        OrgKind org, bool replace) {
  detail::require(coords.size() == values.size(),
                  "coordinate and value counts differ");
  WriteResult result;
  result.point_count = coords.size();

  ARTSPARSE_SPAN_TYPE write_span("store.write", "store");
  write_span.attr("org", std::string(to_string(org)));
  write_span.attr("points", static_cast<std::uint64_t>(coords.size()));

  // Build the organization (Algorithm 3 line 4).
  WallTimer timer;
  ARTSPARSE_SPAN_TYPE build_span("write.build", "store");
  auto format = make_format(org);
  const std::vector<std::size_t> map = format->build(coords, shape_);
  build_span.end();
  result.times.build = timer.seconds();
  result.times.build_sort = format->last_build_sort_seconds();
  ARTSPARSE_OBSERVE_ENUM("artsparse_format_build_ns", "org", org, kOrgKindCount,
                         result.times.build * 1e9);
  ARTSPARSE_OBSERVE_ENUM("artsparse_format_build_sort_ns", "org", org,
                         kOrgKindCount, result.times.build_sort * 1e9);

  // Reorganize b_data based on map if necessary (line 5). COO/LINEAR return
  // the identity; skip the gather entirely, matching the paper's zero-cost
  // "Reorg." rows for them, and encode the caller's values as they are.
  timer.reset();
  ARTSPARSE_SPAN_TYPE reorg_span("write.reorg", "store");
  std::vector<value_t> reorganized;
  std::span<const value_t> ordered = values;
  bool identity = true;
  for (std::size_t i = 0; i < map.size(); ++i) {
    if (map[i] != i) {
      identity = false;
      break;
    }
  }
  if (!identity) {
    // `map` is a permutation (build() inverts its sort permutation), so
    // every slot is written exactly once — the scatter chunks across
    // workers without write conflicts.
    reorganized.resize(values.size());
    parallel_for(0, values.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        reorganized[map[i]] = values[i];
      }
    });
    ordered = reorganized;
  }
  reorg_span.end();
  result.times.reorg = timer.seconds();

  // Concatenate buffers and build the fragment (lines 6-7, "Others"): the
  // header, index and values go into one buffer of the file's length.
  timer.reset();
  ARTSPARSE_SPAN_TYPE encode_span("write.encode", "store");
  FragmentInfo header;
  header.org = org;
  header.codec = codec_;
  header.shape = shape_;
  if (const Box* fitted = format->fitted_box()) {
    header.bbox = *fitted;
  } else if (!coords.empty()) {
    header.bbox = Box::bounding(coords);
  }
  header.point_count = coords.size();
  result.index_bytes = format->index_bytes();
  const Bytes encoded = encode_fragment(header, *format, ordered);
  encode_span.end();
  const std::filesystem::path path = next_fragment_path();
  result.times.others = timer.seconds();

  // Commit the fragment to the (possibly throttled) device (line 7):
  // stage + fsync + rename + directory fsync, retrying transient errors.
  // The outcome feeds the health state machine: persistent ENOSPC/EIO here
  // degrades the store to read-only (CrashFault and budget errors are not
  // device-health signals and bypass the bookkeeping).
  timer.reset();
  RetryStats io;
  try {
    io = atomic_write_file(
        path.string(), encoded, retry_, [this](const std::string& staged) {
          return open_for_write(staged, model_);
        });
  } catch (const IoError& e) {
    note_commit_failure_locked(e.errno_value());
    throw;
  }
  note_commit_success_locked();
  result.times.write = timer.seconds();
  result.times.io_attempts = io.attempts;
  result.times.io_retries = io.retries;
  result.times.backoff = io.backoff_seconds;

  result.path = path.string();
  result.file_bytes = encoded.size();

  // Publish the successor manifest: the committed fragment set plus the
  // new entry (write), or only the new entry with every predecessor
  // doomed (consolidate's replace). Readers switch atomically; pinned
  // snapshots keep the generation they hold.
  const std::shared_ptr<const Manifest> current = current_manifest();
  std::vector<ManifestEntry> entries;
  if (replace) {
    for (const ManifestEntry& old : current->entries()) {
      old.file->doom();
      cache_->invalidate(old.cache_key);
    }
  } else {
    entries = current->entries();
  }
  ManifestEntry entry;
  entry.file = std::make_shared<FragmentFile>(path);
  entry.cache_key = path.string() + "@g" +
                    std::to_string(current->generation() + 1);
  entry.bbox = std::move(header.bbox);
  entry.org = org;
  entry.file_bytes = encoded.size();
  entry.value_min = header.value_min;
  entry.value_max = header.value_max;
  entries.push_back(std::move(entry));
  publish_locked(std::move(entries));

  ARTSPARSE_COUNT("artsparse_store_writes_total", 1);
  ARTSPARSE_COUNT("artsparse_store_write_bytes_total", encoded.size());
  ARTSPARSE_COUNT("artsparse_store_write_build_ns_total",
                  result.times.build * 1e9);
  ARTSPARSE_COUNT("artsparse_store_write_reorg_ns_total",
                  result.times.reorg * 1e9);
  ARTSPARSE_COUNT("artsparse_store_write_others_ns_total",
                  result.times.others * 1e9);
  ARTSPARSE_COUNT("artsparse_store_write_commit_ns_total",
                  result.times.write * 1e9);
  return result;
}

WriteResult FragmentStore::consolidate(std::optional<OrgKind> org) {
  const MutexLock lock(writer_mutex_);
  ensure_writable_locked();
  // Merge from a pinned snapshot of the current generation. The read is
  // always strict: merging must never silently drop data before the old
  // fragments are obsoleted.
  const std::shared_ptr<const Manifest> manifest = current_manifest();
  ARTSPARSE_SPAN_TYPE consolidate_span("store.consolidate", "store");
  consolidate_span.attr(
      "fragments", static_cast<std::uint64_t>(manifest->fragment_count()));
  ARTSPARSE_COUNT("artsparse_store_consolidations_total", 1);
  const ReadResult all =
      Snapshot(manifest, cache_, shape_, model_, ReadFaultPolicy::kStrict)
          .scan_region(Box::whole(shape_));

  // The scan is sorted by address with equal cells in write order, so the
  // last of each run of equal coordinates is the latest write.
  CoordBuffer coords(shape_.rank());
  std::vector<value_t> values;
  for (std::size_t i = 0; i < all.values.size(); ++i) {
    if (i + 1 < all.values.size() &&
        std::ranges::equal(all.coords.point(i), all.coords.point(i + 1))) {
      continue;
    }
    coords.append(all.coords.point(i));
    values.push_back(all.values[i]);
  }

  return write_locked(coords, values,
                      choose_organization(org, coords, shape_),
                      /*replace=*/true);
}

void FragmentStore::rescan() {
  const MutexLock lock(writer_mutex_);
  cache_->invalidate_all();
  // The check subsystem's header-depth gate (header parse + payload
  // checksum) quarantines a torn or bit-rotted file instead of loading it,
  // so one bad fragment can no longer make the whole store unopenable.
  last_scan_ = check::repair_store(directory_, check::Depth::kHeader);

  // Reuse the live manifest's file handles for paths it already tracks, so
  // a pinned snapshot's deferred-deletion guarantee survives a rescan (two
  // independent handles to one path could otherwise unlink it early).
  const std::shared_ptr<const Manifest> current = current_manifest();
  std::map<std::string, const ManifestEntry*> known;
  for (const ManifestEntry& entry : current->entries()) {
    known[entry.path()] = &entry;
  }
  const std::uint64_t born = current->generation() + 1;

  // New fragment names go past every frag_N the sweep saw, gaps, failed
  // fragments and .quarantine strays included: reusing a quarantined name
  // would let a second quarantine replace the first one's bytes.
  for (const std::string& stray : last_scan_.strays) {
    next_id_ = std::max(next_id_, id_after(stray));
  }

  std::vector<ManifestEntry> entries;
  for (const check::FragmentReport& fragment : last_scan_.fragments) {
    next_id_ = std::max(next_id_, id_after(fragment.path));
    if (!fragment.ok()) continue;  // quarantined
    const FragmentInfo& info = fragment.info;
    // Once per fragment per rescan. artsparse-lint: allow(ASL007)
    detail::require(info.shape == shape_,
                    "fragment shape does not match store shape: " +
                        fragment.path);
    ManifestEntry entry;
    const auto it = known.find(fragment.path);
    entry.file = it != known.end()
                     ? it->second->file
                     : std::make_shared<FragmentFile>(fragment.path);
    entry.cache_key = fragment.path + "@g" + std::to_string(born);
    entry.bbox = info.bbox;
    entry.org = info.org;
    entry.file_bytes = fragment.file_bytes;
    entry.value_min = info.value_min;
    entry.value_max = info.value_max;
    entries.push_back(std::move(entry));
  }
  publish_locked(std::move(entries));
}

check::StoreReport FragmentStore::last_scan() const {
  const MutexLock lock(writer_mutex_);
  return last_scan_;
}

void FragmentStore::set_retry_policy(const RetryPolicy& policy) {
  const MutexLock lock(writer_mutex_);
  retry_ = policy;
}

RetryPolicy FragmentStore::retry_policy() const {
  const MutexLock lock(writer_mutex_);
  return retry_;
}

void FragmentStore::set_health_policy(const HealthPolicy& policy) {
  const MutexLock lock(writer_mutex_);
  health_policy_ = policy;
}

HealthPolicy FragmentStore::health_policy() const {
  const MutexLock lock(writer_mutex_);
  return health_policy_;
}

StoreHealth FragmentStore::probe_health() {
  const MutexLock lock(writer_mutex_);
  if (health_.load(std::memory_order_relaxed) != StoreHealth::kHealthy) {
    run_probe_locked();
  }
  return health_.load(std::memory_order_relaxed);
}

void FragmentStore::set_health(StoreHealth health) {
  health_.store(health, std::memory_order_relaxed);
  set_health_gauge(directory_.string(), health);
}

void FragmentStore::note_commit_success_locked() {
  commit_failure_streak_ = 0;
  degraded_errno_ = 0;
  if (health_.load(std::memory_order_relaxed) != StoreHealth::kHealthy) {
    set_health(StoreHealth::kHealthy);
    ARTSPARSE_COUNT("artsparse_store_recovered_total", 1);
  }
}

void FragmentStore::note_commit_failure_locked(int error_number) {
  // Transient errnos exhaust the commit's own retry budget without saying
  // anything about device health; only capacity/EIO persistence does.
  if (!degradation_eligible(error_number)) return;
  degraded_errno_ = error_number;
  ++commit_failure_streak_;
  if (commit_failure_streak_ >= health_policy_.degrade_after &&
      health_.load(std::memory_order_relaxed) == StoreHealth::kHealthy) {
    set_health(StoreHealth::kDegraded);
    next_probe_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          health_policy_.probe_interval_sec));
    ARTSPARSE_COUNT("artsparse_store_degraded_total", 1);
  }
}

void FragmentStore::ensure_writable_locked() {
  if (health_.load(std::memory_order_relaxed) == StoreHealth::kHealthy) {
    return;
  }
  if (std::chrono::steady_clock::now() >= next_probe_ &&
      run_probe_locked()) {
    return;
  }
  ARTSPARSE_COUNT("artsparse_store_degraded_writes_rejected_total", 1);
  throw StoreDegradedError(
      "store '" + directory_.string() + "' is degraded read-only (" +
          std::generic_category().message(degraded_errno_) +
          "); writes fail fast until a recovery probe succeeds",
      directory_.string(), degraded_errno_);
}

bool FragmentStore::run_probe_locked() {
  set_health(StoreHealth::kRecovering);
  ARTSPARSE_COUNT("artsparse_store_health_probes_total", 1);
  // Staged tmp-file write through the real device stack (throttle + fault
  // hooks included), then removed. The .tmp suffix means an interrupted
  // probe's leftover is swept by the next rescan like any orphaned stage
  // file.
  const std::filesystem::path probe = directory_ / "health_probe.tmp";
  const auto cleanup = [&probe] {
    std::error_code ec;
    std::filesystem::remove(probe, ec);  // best effort
  };
  try {
    const std::array<std::byte, 8> payload{};
    auto file = open_for_write(probe.string(), model_);
    file->write_all(std::span<const std::byte>(payload));
    file->sync();
    file.reset();
    cleanup();
  } catch (const CrashFault&) {
    // A crash directive is a test harness signal, not a device outcome:
    // propagate it unswallowed, as every commit path does.
    cleanup();
    set_health(StoreHealth::kDegraded);
    throw;
  } catch (const Error&) {
    cleanup();
    set_health(StoreHealth::kDegraded);
    next_probe_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(health_policy_.probe_interval_sec));
    return false;
  }
  commit_failure_streak_ = 0;
  degraded_errno_ = 0;
  set_health(StoreHealth::kHealthy);
  ARTSPARSE_COUNT("artsparse_store_recovered_total", 1);
  return true;
}

void FragmentStore::clear() {
  const MutexLock lock(writer_mutex_);
  const std::shared_ptr<const Manifest> current = current_manifest();
  for (const ManifestEntry& entry : current->entries()) {
    entry.file->doom();
    cache_->invalidate(entry.cache_key);
  }
  publish_locked({});
  // `current` (usually the last reference) releases on return, unlinking
  // the doomed files unless a pinned snapshot still holds them. Fragment
  // ids deliberately keep counting: see the header contract.
}

std::size_t FragmentStore::fragment_count() const {
  return current_manifest()->fragment_count();
}

std::size_t FragmentStore::total_file_bytes() const {
  return current_manifest()->total_file_bytes();
}

}  // namespace artsparse
