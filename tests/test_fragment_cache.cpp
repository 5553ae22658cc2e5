#include "storage/fragment_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/linearize.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment.hpp"
#include "storage/fragment_store.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

class FragmentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("cache"); }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Writes `count` disjoint 4x4 fragments along the diagonal.
  void write_fragments(FragmentStore& store, std::size_t count) {
    for (std::size_t f = 0; f < count; ++f) {
      const index_t base = static_cast<index_t>(f) * 8;
      CoordBuffer coords(2);
      std::vector<value_t> values;
      for (index_t r = base; r < base + 4; ++r) {
        for (index_t c = base; c < base + 4; ++c) {
          coords.append({r, c});
          values.push_back(static_cast<value_t>(linearize(
              std::vector<index_t>{r, c}, store.tensor_shape())));
        }
      }
      store.write(coords, values, OrgKind::kGcsr);
    }
  }

  std::filesystem::path dir_;
};

TEST_F(FragmentCacheTest, OpenFragmentChargesValuesPlusDecodedIndex) {
  // The identity codec loads the format straight from the file bytes, with
  // no decoded index copy; the budget charge must not notice.
  for (const CodecKind codec : {CodecKind::kIdentity, CodecKind::kDeltaVarint}) {
    SCOPED_TRACE(to_string(codec));
    const auto dir = dir_ / to_string(codec);
    FragmentStore store(dir, Shape{64, 64}, DeviceModel::unthrottled(), codec,
                        std::make_shared<FragmentCache>(0));
    CoordBuffer coords(2);
    std::vector<value_t> values;
    for (index_t r = 0; r < 8; ++r) {
      coords.append({r, 7 - r});
      values.push_back(static_cast<value_t>(r));
    }
    const std::string path = store.write(coords, values, OrgKind::kGcsr).path;
    const auto open = load_open_fragment(path, DeviceModel::unthrottled());
    // The decoded index is the format's serialized form, whatever the
    // codec stored.
    EXPECT_EQ(open->memory_bytes, values.size() * sizeof(value_t) +
                                      serialize_format(*open->format).size() +
                                      sizeof(OpenFragment));
    EXPECT_EQ(open->file_bytes, std::filesystem::file_size(path));
    std::vector<value_t> slot_values = open->values;
    std::sort(slot_values.begin(), slot_values.end());
    EXPECT_EQ(slot_values, values);
  }
}

TEST_F(FragmentCacheTest, HitAndMissAccounting) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>(64u << 20);
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 3);

  const Box whole = Box::whole(shape);
  const ReadResult cold = store.scan_region(whole);
  EXPECT_EQ(cold.times.cache_misses, 3u);
  EXPECT_EQ(cold.times.cache_hits, 0u);

  const ReadResult warm = store.scan_region(whole);
  EXPECT_EQ(warm.times.cache_misses, 0u);
  EXPECT_EQ(warm.times.cache_hits, 3u);

  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.open_count, 3u);
  EXPECT_GT(stats.open_bytes, 0u);
  EXPECT_EQ(stats.budget_bytes, 64u << 20);
  EXPECT_EQ(&store.cache(), cache.get());
}

TEST_F(FragmentCacheTest, RepeatedReadRegionDoesZeroFileReadsAfterWarmup) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>();
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 4);

  const Box region({0, 0}, {63, 63});
  const ReadResult warmup = store.read_region(region);
  const std::size_t misses_after_warmup = cache->stats().misses;
  EXPECT_EQ(warmup.times.cache_misses, 4u);

  // The acceptance criterion: repeated reads over an unchanged store load
  // no fragment files at all — every resolution is a cache hit.
  for (int round = 0; round < 3; ++round) {
    const ReadResult again = store.read_region(region);
    EXPECT_EQ(again.times.cache_misses, 0u);
    EXPECT_EQ(again.times.cache_hits, 4u);
    EXPECT_EQ(again.values.size(), warmup.values.size());
  }
  EXPECT_EQ(cache->stats().misses, misses_after_warmup);
}

TEST_F(FragmentCacheTest, ByteBudgetEvictsLeastRecentlyUsedFirst) {
  const Shape shape{64, 64};
  // Budget sized to hold roughly two of the three identical fragments.
  auto probe = std::make_shared<FragmentCache>();
  {
    FragmentStore store(dir_ / "probe", shape, DeviceModel::unthrottled(),
                        CodecKind::kIdentity, probe);
    write_fragments(store, 1);
    store.scan_region(Box::whole(shape));
  }
  const std::size_t one_fragment = probe->stats().open_bytes;
  ASSERT_GT(one_fragment, 0u);

  auto cache = std::make_shared<FragmentCache>(2 * one_fragment);
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 3);
  const std::vector<std::string> paths = [&] {
    std::vector<std::string> p;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.is_regular_file()) p.push_back(entry.path().string());
    }
    std::sort(p.begin(), p.end());
    return p;
  }();
  ASSERT_EQ(paths.size(), 3u);

  // Touch 0, 1, 2: inserting 2 must evict 0 (the least recently used).
  EXPECT_FALSE(cache->get(paths[0], DeviceModel::unthrottled()).hit);
  EXPECT_FALSE(cache->get(paths[1], DeviceModel::unthrottled()).hit);
  EXPECT_FALSE(cache->get(paths[2], DeviceModel::unthrottled()).hit);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->stats().open_count, 2u);

  EXPECT_TRUE(cache->get(paths[1], DeviceModel::unthrottled()).hit);
  EXPECT_TRUE(cache->get(paths[2], DeviceModel::unthrottled()).hit);
  // Fragment 0 was the eviction victim; re-reading it misses (and evicts
  // the now-least-recent fragment 1).
  EXPECT_FALSE(cache->get(paths[0], DeviceModel::unthrottled()).hit);
  EXPECT_EQ(cache->stats().evictions, 2u);
  EXPECT_FALSE(cache->get(paths[1], DeviceModel::unthrottled()).hit);
}

TEST_F(FragmentCacheTest, ZeroBudgetDisablesCaching) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>(0);
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 2);

  const Box whole = Box::whole(shape);
  store.scan_region(whole);
  store.scan_region(whole);
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.open_count, 0u);
  EXPECT_EQ(stats.open_bytes, 0u);
}

TEST_F(FragmentCacheTest, ClearInvalidatesCachedFragments) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>();
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 2);
  store.scan_region(Box::whole(shape));
  EXPECT_EQ(cache->stats().open_count, 2u);

  store.clear();
  EXPECT_EQ(cache->stats().open_count, 0u);
  EXPECT_GE(cache->stats().invalidations, 2u);

  // Fragment ids are never recycled (clear() keeps the counter), but the
  // read must still see the new bytes, not any stale cached decode.
  CoordBuffer coords(2);
  coords.append({1, 1});
  const std::vector<value_t> values{42.0};
  store.write(coords, values, OrgKind::kCoo);
  const ReadResult result = store.scan_region(Box::whole(shape));
  ASSERT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.values[0], 42.0);
}

TEST_F(FragmentCacheTest, ConsolidateInvalidatesAndRereadsCorrectly) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>();
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 3);
  // Overwrite one cell so consolidation must keep the latest value.
  CoordBuffer coords(2);
  coords.append({0, 0});
  const std::vector<value_t> values{-1.0};
  store.write(coords, values, OrgKind::kCoo);

  store.scan_region(Box::whole(shape));  // warm the cache
  const WriteResult merged = store.consolidate(OrgKind::kLinear);
  EXPECT_EQ(store.fragment_count(), 1u);
  EXPECT_EQ(merged.point_count, 48u);

  const ReadResult result = store.scan_region(Box::whole(shape));
  EXPECT_EQ(result.times.cache_misses, 1u);  // only the merged fragment
  ASSERT_FALSE(result.values.empty());
  EXPECT_EQ(result.values[0], -1.0);  // latest write won
}

TEST_F(FragmentCacheTest, RescanInvalidatesCachedFragments) {
  const Shape shape{64, 64};
  auto cache = std::make_shared<FragmentCache>();
  FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, cache);
  write_fragments(store, 2);
  store.scan_region(Box::whole(shape));
  EXPECT_EQ(cache->stats().open_count, 2u);

  store.rescan();
  EXPECT_EQ(cache->stats().open_count, 0u);

  // Reads after rescan still work (and reload from disk).
  const ReadResult result = store.scan_region(Box::whole(shape));
  EXPECT_EQ(result.times.cache_misses, 2u);
  EXPECT_EQ(result.values.size(), 32u);
}

TEST_F(FragmentCacheTest, BudgetFromEnvironment) {
  const char* saved = std::getenv("ARTSPARSE_CACHE_BYTES");
  const std::string saved_value = saved ? saved : "";

  ::setenv("ARTSPARSE_CACHE_BYTES", "12345", 1);
  EXPECT_EQ(FragmentCache::budget_from_env(), 12345u);
  EXPECT_EQ(FragmentCache().budget_bytes(), 12345u);

  ::unsetenv("ARTSPARSE_CACHE_BYTES");
  EXPECT_EQ(FragmentCache::budget_from_env(),
            FragmentCache::kDefaultBudgetBytes);

  if (saved) {
    ::setenv("ARTSPARSE_CACHE_BYTES", saved_value.c_str(), 1);
  }
}

#if defined(ARTSPARSE_OBS_ENABLED)
TEST_F(FragmentCacheTest, StatsAndRegistryAreIndependentCursors) {
  // CacheStats (per instance) and the obs registry (process-wide) observe
  // the same event stream through independent cursors: resetting one must
  // not move the other.
  const Shape shape{64, 64};
  obs::MetricsRegistry& reg = obs::registry();
  const double hits_before = reg.snapshot().value("artsparse_cache_hits_total");
  const double misses_before =
      reg.snapshot().value("artsparse_cache_misses_total");
  const std::int64_t open_before = static_cast<std::int64_t>(
      reg.snapshot().value("artsparse_cache_open_fragments"));

  auto cache = std::make_shared<FragmentCache>();
  {
    FragmentStore store(dir_, shape, DeviceModel::unthrottled(),
                        CodecKind::kIdentity, cache);
    write_fragments(store, 2);
    store.scan_region(Box::whole(shape));  // 2 misses
    store.scan_region(Box::whole(shape));  // 2 hits

    EXPECT_EQ(cache->stats().hits, 2u);
    EXPECT_EQ(cache->stats().misses, 2u);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("artsparse_cache_hits_total"),
                     hits_before + 2);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("artsparse_cache_misses_total"),
                     misses_before + 2);
    EXPECT_EQ(static_cast<std::int64_t>(
                  reg.snapshot().value("artsparse_cache_open_fragments")),
              open_before + 2);

    // Cursor independence, direction 1: reset_stats() rewinds only the
    // per-instance view.
    cache->reset_stats();
    EXPECT_EQ(cache->stats().hits, 0u);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("artsparse_cache_hits_total"),
                     hits_before + 2);

    // Direction 2: registry reset zeroes the process-wide counters but
    // not the instance's, and leaves the resident gauges alone.
    store.scan_region(Box::whole(shape));  // 2 more instance hits
    reg.reset();
    EXPECT_EQ(cache->stats().hits, 2u);
    EXPECT_DOUBLE_EQ(reg.snapshot().value("artsparse_cache_hits_total"),
                     0.0);
    EXPECT_EQ(static_cast<std::int64_t>(
                  reg.snapshot().value("artsparse_cache_open_fragments")),
              open_before + 2);
  }
  // The cache's residents die with it; the live gauges return to baseline.
  cache.reset();
  EXPECT_EQ(static_cast<std::int64_t>(
                reg.snapshot().value("artsparse_cache_open_fragments")),
            open_before);
}
#endif

}  // namespace
}  // namespace artsparse
