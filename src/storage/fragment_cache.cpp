#include "storage/fragment_cache.hpp"

#include <cstring>

#include "core/env.hpp"
#include "core/timer.hpp"
#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/serializer.hpp"

namespace artsparse {

OpenFragment open_fragment(const FragmentView& view) {
  // The format loads its arrays straight from the file bytes under the
  // identity codec; other codecs decode the index section first.
  Bytes decoded;
  std::span<const std::byte> index = view.index;
  if (view.info.codec != CodecKind::kIdentity) {
    decoded = make_codec(view.info.codec)->decode(view.index);
    index = decoded;
  }

  OpenFragment open;
  open.org = view.info.org;
  open.shape = view.info.shape;
  open.bbox = view.info.bbox;
  open.point_count = view.info.point_count;
  open.file_bytes = view.file_bytes;
  // load_format() rather than a bare load(): it applies the paranoid
  // deep-invariant pass (ARTSPARSE_PARANOID) to every fragment opened.
  open.format = load_format(view.info.org, index);
  open.values.resize(view.values.size() / sizeof(value_t));
  if (!view.values.empty()) {
    std::memcpy(open.values.data(), view.values.data(), view.values.size());
  }
  // Budget accounting: the two payloads that dominate the resident size.
  // The decoded in-memory index is approximated by its serialized size.
  open.memory_bytes = open.values.size() * sizeof(value_t) + index.size() +
                      sizeof(OpenFragment);
  return open;
}

std::shared_ptr<const OpenFragment> load_open_fragment(
    const std::string& path, const DeviceModel& model) {
  ARTSPARSE_SPAN_TYPE span("cache.load", "cache");
  span.attr("path", path);
  Bytes raw;
  {
    auto device = open_for_read(path, model);
    raw = device->read_at(0, device->size());
  }
  return std::make_shared<const OpenFragment>(
      open_fragment(view_fragment(raw)));
}

std::size_t FragmentCache::budget_from_env() {
  // Hardened parse (core/env): "64K" or "-1" no longer half-parse into a
  // surprise budget; malformed settings fall back to the default.
  return static_cast<std::size_t>(
      env_u64("ARTSPARSE_CACHE_BYTES").value_or(kDefaultBudgetBytes));
}

FragmentCache::FragmentCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

FragmentCache::~FragmentCache() {
  // Residents vanish with the cache; return their share of the live
  // gauges so process-wide open_bytes/open_fragments stay truthful.
  const MutexLock lock(mutex_);
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_bytes",
                      -static_cast<std::int64_t>(open_bytes_));
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_fragments",
                      -static_cast<std::int64_t>(lru_.size()));
}

FragmentCache::Lookup FragmentCache::get(const std::string& path,
                                         const DeviceModel& model) {
  return get(path, path, model);
}

FragmentCache::Lookup FragmentCache::get(const std::string& key,
                                         const std::string& path,
                                         const DeviceModel& model) {
  {
    const MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      ARTSPARSE_COUNT("artsparse_cache_hits_total", 1);
      return Lookup{it->second->second, true, 0.0};
    }
  }

  // Load outside the lock so concurrent misses overlap their I/O.
  WallTimer timer;
  std::shared_ptr<const OpenFragment> fragment =
      load_open_fragment(path, model);
  const double load_seconds = timer.seconds();
  ARTSPARSE_COUNT("artsparse_cache_misses_total", 1);
  ARTSPARSE_OBSERVE("artsparse_cache_load_ns", load_seconds * 1e9);

  const MutexLock lock(mutex_);
  ++misses_;
  if (budget_bytes_ == 0) {
    return Lookup{std::move(fragment), false, load_seconds};
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Another thread inserted while we loaded; adopt its copy.
    lru_.splice(lru_.begin(), lru_, it->second);
    return Lookup{it->second->second, false, load_seconds};
  }
  insert_locked(key, fragment);
  return Lookup{std::move(fragment), false, load_seconds};
}

void FragmentCache::insert_locked(
    const std::string& key, std::shared_ptr<const OpenFragment> fragment) {
  open_bytes_ += fragment->memory_bytes;
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_bytes", fragment->memory_bytes);
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_fragments", 1);
  lru_.emplace_front(key, std::move(fragment));
  index_[key] = lru_.begin();
  while (open_bytes_ > budget_bytes_ && lru_.size() > 1) {
    const auto& [victim_path, victim] = lru_.back();
    open_bytes_ -= victim->memory_bytes;
    ARTSPARSE_GAUGE_ADD("artsparse_cache_open_bytes",
                        -static_cast<std::int64_t>(victim->memory_bytes));
    ARTSPARSE_GAUGE_ADD("artsparse_cache_open_fragments", -1);
    index_.erase(victim_path);
    lru_.pop_back();
    ++evictions_;
    ARTSPARSE_COUNT("artsparse_cache_evictions_total", 1);
  }
}

void FragmentCache::add_pinned(std::int64_t delta) {
  pinned_bytes_.fetch_add(delta, std::memory_order_relaxed);
  ARTSPARSE_GAUGE_ADD("artsparse_cache_pinned_bytes", delta);
}

void FragmentCache::invalidate(const std::string& key) {
  const MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  open_bytes_ -= it->second->second->memory_bytes;
  ARTSPARSE_GAUGE_ADD(
      "artsparse_cache_open_bytes",
      -static_cast<std::int64_t>(it->second->second->memory_bytes));
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_fragments", -1);
  lru_.erase(it->second);
  index_.erase(it);
  ++invalidations_;
  ARTSPARSE_COUNT("artsparse_cache_invalidations_total", 1);
}

void FragmentCache::invalidate_all() {
  const MutexLock lock(mutex_);
  invalidations_ += lru_.size();
  ARTSPARSE_COUNT("artsparse_cache_invalidations_total", lru_.size());
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_bytes",
                      -static_cast<std::int64_t>(open_bytes_));
  ARTSPARSE_GAUGE_ADD("artsparse_cache_open_fragments",
                      -static_cast<std::int64_t>(lru_.size()));
  lru_.clear();
  index_.clear();
  open_bytes_ = 0;
}

CacheStats FragmentCache::stats() const {
  const MutexLock lock(mutex_);
  CacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.open_count = lru_.size();
  stats.open_bytes = open_bytes_;
  const std::int64_t pinned = pinned_bytes_.load(std::memory_order_relaxed);
  stats.pinned_bytes = pinned > 0 ? static_cast<std::size_t>(pinned) : 0;
  stats.budget_bytes = budget_bytes_;
  return stats;
}

void FragmentCache::reset_stats() {
  const MutexLock lock(mutex_);
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  invalidations_ = 0;
}

}  // namespace artsparse
