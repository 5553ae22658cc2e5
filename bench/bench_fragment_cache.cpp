// Open-fragment cache + parallel fan-out ablation: repeated region reads
// over a multi-fragment store, with the fragment traffic throttled to the
// Lustre-like device model so disk cost is visible.
//
// Expected shape: the cold read pays one fragment load per overlapping
// fragment; warm reads resolve every fragment from the cache and drop the
// extract phase to ~0, so warm total << cold total. Disabling the cache
// (budget 0) keeps every read at cold cost; the parallel fan-out additionally
// beats ARTSPARSE_THREADS=1 on the cold pass whenever hardware allows.
#include <unistd.h>

#include <cstdlib>

#include "bench_common.hpp"
#include "cli_support.hpp"

int main() {
  using namespace artsparse;

  const Shape shape{512, 512};
  const index_t kFragments = 24;
  const Box region({0, 0}, {511, 511});

  // One fragment per row band, written once and shared by all configs.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("artsparse_bench_cache_" + std::to_string(::getpid()));
  const DeviceModel device = DeviceModel::lustre_like();
  auto populate = [&](FragmentStore& store) {
    Xoshiro256 rng(7);
    const index_t band = shape.extent(0) / kFragments;
    for (index_t f = 0; f < kFragments; ++f) {
      CoordBuffer coords(2);
      std::vector<value_t> values;
      for (index_t r = f * band; r < (f + 1) * band; ++r) {
        for (index_t c = 0; c < shape.extent(1); c += 4) {
          coords.append({r, c});
          values.push_back(rng.next_double());
        }
      }
      store.write(coords, values, OrgKind::kGcsr);
    }
  };

  struct Config {
    const char* name;
    std::size_t budget;
    const char* threads;  // ARTSPARSE_THREADS value, nullptr = hardware
  };
  const Config configs[] = {
      {"uncached, 1 thread", 0, "1"},
      {"uncached, parallel", 0, nullptr},
      {"cached,   parallel", FragmentCache::kDefaultBudgetBytes, nullptr},
  };

  std::printf("Open-fragment cache ablation — %zu fragments, %s, "
              "Lustre-like device\n\n",
              static_cast<std::size_t>(kFragments),
              shape.to_string().c_str());

  TextTable table({"Config", "Cold read", "Warm read", "Warm extract",
                   "Hits", "Misses"});
  double uncached_warm = 0.0;
  double cached_warm = 0.0;
  std::size_t expected_points = 0;
  bool consistent = true;

  for (const Config& config : configs) {
    if (config.threads) {
      ::setenv("ARTSPARSE_THREADS", config.threads, 1);
    } else {
      ::unsetenv("ARTSPARSE_THREADS");
    }
    auto cache = std::make_shared<FragmentCache>(config.budget);
    FragmentStore store(dir, shape, device, CodecKind::kIdentity, cache);
    if (store.fragment_count() == 0) populate(store);

    const ReadResult cold = store.scan_region(region);
    // Best-of-3 warm reads: every fragment already resolved once.
    ReadResult warm = store.scan_region(region);
    for (int round = 0; round < 2; ++round) {
      ReadResult again = store.scan_region(region);
      if (again.times.total() < warm.times.total()) warm = again;
    }

    if (expected_points == 0) expected_points = cold.values.size();
    consistent = consistent && cold.values.size() == expected_points &&
                 warm.values.size() == expected_points;
    if (config.budget == 0) {
      uncached_warm = warm.times.total();
    } else {
      cached_warm = warm.times.total();
    }

    table.add_row({config.name, format_seconds(cold.times.total()),
                   format_seconds(warm.times.total()),
                   format_seconds(warm.times.extract),
                   std::to_string(warm.times.cache_hits),
                   std::to_string(warm.times.cache_misses)});
    std::fprintf(stderr, "  [%s] %s\n", config.name,
                 cli::format_cache_stats(cache->stats()).c_str());
  }
  ::unsetenv("ARTSPARSE_THREADS");

  std::fputs(table.str().c_str(), stdout);
  const double speedup =
      cached_warm > 0.0 ? uncached_warm / cached_warm : 0.0;
  std::printf("\nchecks: warm cached read %.1fx faster than uncached %s; "
              "results consistent across configs %s\n",
              speedup, speedup > 1.0 ? "OK" : "UNEXPECTED",
              consistent ? "OK" : "UNEXPECTED");
  bench::emit_csv(table, "fragment_cache");

  {
    // Clean up the store directory.
    FragmentStore store(dir, shape);
    store.clear();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return (speedup > 1.0 && consistent) ? 0 : 1;
}
