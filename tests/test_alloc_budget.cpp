// Heap-allocation budget of the per-point paths. The paper's cost model
// (Table I) counts index operations per nonzero; a malloc/free pair per
// point or per passing check would dwarf them. This binary replaces the
// global operator new with a counting one, so it is its own executable:
// every build, scan_box and read on each organization, and every store
// write and region scan, may allocate at most kBudget times per point, hit
// or query (a few buffers per call, not per entry), and a passing
// detail::require allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/error.hpp"
#include "core/linearize.hpp"
#include "core/rng.hpp"
#include "core/shape.hpp"
#include "formats/format.hpp"
#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "storage/compress/codec.hpp"
#include "storage/fragment_cache.hpp"
#include "storage/fragment_store.hpp"
#include "storage/throttle.hpp"
#include "test_support.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

/// malloc (or posix_memalign) behind two counters; null when out of memory.
void* counted_alloc(std::size_t size, std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  void* p = nullptr;
  return ::posix_memalign(&p, alignment, size) == 0 ? p : nullptr;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t alignment) {
  if (void* p = counted_alloc(size, alignment)) return p;
  throw std::bad_alloc();
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

// Every replaceable form, so no allocation can reach a runtime's own
// operator new (a sanitizer's, say) and then come back to this free().
void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, kDefault);
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace artsparse {
namespace {

/// Allocations per point, hit or query allowed on every measured path.
constexpr double kBudget = 0.05;
constexpr std::size_t kPoints = 100'000;
constexpr index_t kExtent = 128;

constexpr OrgKind kAllOrgs[] = {
    OrgKind::kCoo, OrgKind::kLinear,    OrgKind::kGcsr, OrgKind::kGcsc,
    OrgKind::kCsf, OrgKind::kSortedCoo, OrgKind::kBcsr};

/// Heap allocations, and the bytes they asked for, since construction, on
/// every thread.
class AllocationCounter {
 public:
  std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed) - start_;
  }
  std::uint64_t bytes() const {
    return g_bytes.load(std::memory_order_relaxed) - start_bytes_;
  }
  double per(std::size_t n) const {
    return static_cast<double>(count()) / static_cast<double>(n);
  }

 private:
  std::uint64_t start_ = g_allocations.load(std::memory_order_relaxed);
  std::uint64_t start_bytes_ = g_bytes.load(std::memory_order_relaxed);
};

/// kPoints distinct random cells of a kExtent^3 tensor.
CoordBuffer unique_points(const Shape& shape) {
  Xoshiro256 rng(42);
  std::unordered_set<index_t> seen;
  CoordBuffer coords(shape.rank());
  std::vector<index_t> point(shape.rank());
  while (coords.size() < kPoints) {
    const index_t address = rng.next_below(shape.element_count());
    if (!seen.insert(address).second) continue;
    delinearize(address, shape, point);
    coords.append(point);
  }
  return coords;
}

/// A 64^3 query box in the middle of the tensor.
Box query_box() { return Box({32, 32, 32}, {95, 95, 95}); }

class AllocBudget : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A replaced operator new that the runtime bypasses (some sanitizer
    // runtimes interpose their own) would make every budget pass vacuously.
    const AllocationCounter probe;
    sink_ = new std::vector<int>(64);
    delete sink_;
    counting_works_ = probe.count() >= 2;
  }

  void SetUp() override {
    if (!counting_works_) {
      GTEST_SKIP() << "this runtime bypasses the replaced operator new, so "
                      "allocations cannot be counted";
    }
  }

  const Shape shape_{kExtent, kExtent, kExtent};

 private:
  static bool counting_works_;
  /// Volatile, so the probe's new/delete pair cannot be elided.
  static std::vector<int>* volatile sink_;
};

bool AllocBudget::counting_works_ = false;
std::vector<int>* volatile AllocBudget::sink_ = nullptr;

TEST_F(AllocBudget, PassingRequireAllocatesNothing) {
  const AllocationCounter counter;
  for (int i = 0; i < 1000; ++i) {
    detail::require(i >= 0, "a passing check with a message past the SSO");
  }
  EXPECT_EQ(counter.count(), 0u);
  try {
    detail::require(false, "a failing check with a message past the SSO");
    FAIL() << "require(false, ...) returned";
  } catch (const FormatError& e) {
    EXPECT_STREQ(e.what(), "a failing check with a message past the SSO");
  }
}

#if defined(ARTSPARSE_OBS_ENABLED)
TEST_F(AllocBudget, LabeledObserveOnExistingSeriesBuildsNoMessage) {
  // The store observes artsparse_format_read_ns once per fragment per
  // region of every read. A hit still builds its label list and series key
  // (4 allocations per call, measured) but not the kind-clash message,
  // which cost 3 more.
  const std::string org = "GCSR++";
  ARTSPARSE_OBSERVE_L("test_alloc_labeled_ns", "org", org, 1.0);
  constexpr int kCalls = 1000;
  const AllocationCounter counter;
  for (int i = 0; i < kCalls; ++i) {
    ARTSPARSE_OBSERVE_L("test_alloc_labeled_ns", "org", org, 1.0);
  }
  EXPECT_LE(counter.per(kCalls), 5.0) << counter.count() << " allocs";
  try {
    ARTSPARSE_COUNT_L("test_alloc_labeled_ns", "org", org, 1);
    FAIL() << "a counter lookup of a histogram series returned";
  } catch (const FormatError& e) {
    EXPECT_STREQ(e.what(),
                 "metric 'test_alloc_labeled_ns' already registered as "
                 "histogram");
  }
}

TEST_F(AllocBudget, EnumLabeledObserveAllocatesNothing) {
  // The store's per-organization series (format read, build and build-sort
  // time) resolve once per organization, then cost no lookup at all.
  const auto observe = [](OrgKind org) {
    ARTSPARSE_OBSERVE_ENUM("test_alloc_enum_ns", "org", org, kOrgKindCount,
                           1.0);
  };
  for (const OrgKind org : kAllOrgs) observe(org);
  constexpr int kCalls = 1000;
  const AllocationCounter counter;
  for (int i = 0; i < kCalls; ++i) observe(kAllOrgs[i % std::size(kAllOrgs)]);
  EXPECT_EQ(counter.count(), 0u);
  // The same series ARTSPARSE_OBSERVE_L names, so exports do not change.
  EXPECT_EQ(&obs::registry().histogram("test_alloc_enum_ns", "",
                                       {{"org", "GCSR++"}}),
            &obs::registry().histogram("test_alloc_enum_ns", "",
                                       {{"org", to_string(OrgKind::kGcsr)}}));
}
#endif

TEST_F(AllocBudget, LocalAddressingAllocatesNothing) {
  const Box box = query_box();
  std::vector<index_t> point(3);
  const AllocationCounter counter;
  for (index_t address = 0; address < 4096; ++address) {
    delinearize_local(address, box, point);
    static_cast<void>(linearize_local(point, box));
  }
  EXPECT_EQ(counter.count(), 0u);
}

TEST_F(AllocBudget, FormatBuildScanAndReadOnEveryOrg) {
  const CoordBuffer coords = unique_points(shape_);
  const Box box = query_box();
  // Half stored points, half random cells (mostly misses); few enough
  // that the linear-scan organizations stay quick.
  CoordBuffer queries(3);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < 256; ++i) {
    queries.append(coords.point(rng.next_below(coords.size())));
    queries.append({rng.next_below(kExtent), rng.next_below(kExtent),
                    rng.next_below(kExtent)});
  }
  for (const OrgKind org : kAllOrgs) {
    SCOPED_TRACE(to_string(org));
    const auto format = make_format(org);

    const AllocationCounter build;
    static_cast<void>(format->build(coords, shape_));
    EXPECT_LE(build.per(coords.size()), kBudget) << build.count() << " allocs";

    CoordBuffer points(3);
    std::vector<std::size_t> slots;
    const AllocationCounter scan;
    format->scan_box(box, points, slots);
    const std::uint64_t scan_allocs = scan.count();
    ASSERT_GT(slots.size(), 0u);
    EXPECT_LE(static_cast<double>(scan_allocs) /
                  static_cast<double>(slots.size()),
              kBudget)
        << scan_allocs << " allocs for " << slots.size() << " hits";

    const AllocationCounter read;
    const std::vector<std::size_t> found = format->read(queries);
    EXPECT_LE(read.per(queries.size()), kBudget) << read.count() << " allocs";
    ASSERT_EQ(found.size(), queries.size());
  }
}

class StoreAllocBudget : public AllocBudget,
                         public ::testing::WithParamInterface<CodecKind> {
 protected:
  void SetUp() override {
    AllocBudget::SetUp();
    dir_ = testing::fresh_temp_dir("alloc_budget");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_P(StoreAllocBudget, WriteAndColdAndWarmScanOnEveryOrg) {
  const CoordBuffer coords = unique_points(shape_);
  const std::vector<value_t> values(coords.size(), 1.0);
  const Box box = query_box();
  for (const OrgKind org : kAllOrgs) {
    SCOPED_TRACE(to_string(org));
    const auto org_dir = dir_ / to_string(org);
    // Budget 0 caches nothing: every scan loads and decodes the fragment.
    FragmentStore cold(org_dir, shape_, DeviceModel::unthrottled(),
                       GetParam(), std::make_shared<FragmentCache>(0));

    const AllocationCounter write;
    static_cast<void>(cold.write(coords, values, org));
    EXPECT_LE(write.per(coords.size()), kBudget) << write.count() << " allocs";

    const AllocationCounter cold_scan;
    const ReadResult cold_result = cold.scan_region(box);
    const std::uint64_t cold_allocs = cold_scan.count();
    ASSERT_GT(cold_result.values.size(), 0u);
    EXPECT_LE(static_cast<double>(cold_allocs) /
                  static_cast<double>(cold_result.values.size()),
              kBudget)
        << cold_allocs << " allocs for " << cold_result.values.size()
        << " hits, cold";

    FragmentStore warm(org_dir, shape_, DeviceModel::unthrottled(),
                       GetParam(), std::make_shared<FragmentCache>(1u << 30));
    static_cast<void>(warm.scan_region(box));  // loads into the cache
    const AllocationCounter warm_scan;
    const ReadResult warm_result = warm.scan_region(box);
    const std::uint64_t warm_allocs = warm_scan.count();
    ASSERT_EQ(warm_result.values.size(), cold_result.values.size());
    EXPECT_LE(static_cast<double>(warm_allocs) /
                  static_cast<double>(warm_result.values.size()),
              kBudget)
        << warm_allocs << " allocs for " << warm_result.values.size()
        << " hits, warm";
  }
}

TEST_F(StoreAllocBudget, IdentityWriteAndColdScanAllocateOneBufferPerCopy) {
  // Bytes, not calls: one GCSR++ write and one cold scan, identity codec.
  // A write holds the build's five n-entry arrays (two transform outputs,
  // the permutation, the minor index, the map), the reorganized values and
  // one file-sized encode buffer. A cold scan holds the file bytes, the
  // format's arrays (the index, minus its few header words), the values
  // and its hits. Measured with 100k points, 12481 hits and a 1.6 MB file:
  // 6.43 MB per write (8.84 MB before the encode wrote into one buffer)
  // and 6.36 MB per scan (7.16 MB before the load stopped copying the
  // index). Each removed copy was at least the 0.8 MB index, well past
  // the 64 KiB slack for thread-count-dependent scratch.
  const CoordBuffer coords = unique_points(shape_);
  const std::vector<value_t> values(coords.size(), 1.0);
  const std::uint64_t n_bytes = coords.size() * sizeof(index_t);
  constexpr std::uint64_t kSlack = 64 << 10;
  FragmentStore store(dir_, shape_, DeviceModel::unthrottled(),
                      CodecKind::kIdentity, std::make_shared<FragmentCache>(0));

  const AllocationCounter write;
  const WriteResult written = store.write(coords, values, OrgKind::kGcsr);
  EXPECT_LE(write.bytes(), 6 * n_bytes + written.file_bytes + kSlack);

  const AllocationCounter scan;
  const ReadResult result = store.scan_region(query_box());
  const std::uint64_t scan_bytes = scan.bytes();
  ASSERT_EQ(result.values.size(), 12481u);
  // 256 bytes per hit: its coordinates, value, slot and merge keys, each
  // in buffers that grow by doubling.
  EXPECT_LE(scan_bytes, written.file_bytes + written.index_bytes + n_bytes +
                            256 * result.values.size() + kSlack);
}

INSTANTIATE_TEST_SUITE_P(Codecs, StoreAllocBudget,
                         ::testing::Values(CodecKind::kIdentity,
                                           CodecKind::kDeltaVarint),
                         [](const auto& info) {
                           return info.param == CodecKind::kIdentity
                                      ? std::string("identity")
                                      : std::string("delta_varint");
                         });

}  // namespace
}  // namespace artsparse
