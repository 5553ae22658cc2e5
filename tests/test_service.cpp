// The multi-tenant service core: admission control, per-tenant
// attribution, batched reads, and the snapshot/generation surface the
// service builds on.
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/deadline.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/timer.hpp"
#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "patterns/calibrate.hpp"
#include "patterns/dataset.hpp"
#include "service/service.hpp"
#include "storage/fault.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"
#include "storage/throttle.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

using testing::fresh_temp_dir;

CoordBuffer grid_coords(index_t lo, index_t hi) {
  CoordBuffer coords(2);
  for (index_t r = lo; r < hi; ++r) {
    for (index_t c = lo; c < hi; ++c) {
      coords.append({r, c});
    }
  }
  return coords;
}

std::vector<value_t> values_for(const CoordBuffer& coords, double scale) {
  std::vector<value_t> values;
  values.reserve(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    values.push_back(scale * static_cast<double>(i + 1));
  }
  return values;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_temp_dir("service");
    store_ = std::make_unique<FragmentStore>(dir_, Shape{64, 64});
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<FragmentStore> store_;
};

TEST(TokenBucketTest, DisabledBucketAlwaysAdmits) {
  TokenBucket bucket(0.0);
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.try_acquire(1e9));
  }
}

TEST(TokenBucketTest, BurstThenRejects) {
  // Rate 1/s with a burst of 3: three immediate acquires pass, the fourth
  // fails (the test finishes long before a refill token accrues).
  TokenBucket bucket(1.0, 3.0);
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_FALSE(bucket.try_acquire());
}

TEST(TokenBucketTest, ForceDebitCreatesDebt) {
  TokenBucket bucket(1.0, 5.0);
  bucket.force_debit(100.0);
  EXPECT_LT(bucket.available(), 0.0);
  // In debt, even a zero-token acquire fails until the refill catches up.
  EXPECT_FALSE(bucket.try_acquire(0.0));
}

TEST_F(ServiceTest, OpsQuotaRejectsWithTypedError) {
  Service service(*store_);
  service.admission().set_quota(
      "t1", TenantQuota{/*ops_per_sec=*/2.0, 0.0, 0});
  Session session = service.session("t1");
  const Box region({0, 0}, {8, 8});
  session.scan(region);
  session.scan(region);
  try {
    session.scan(region);
    FAIL() << "third op within the burst should be rejected";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.tenant(), "t1");
    EXPECT_EQ(e.quota(), "ops");
  }
  const TenantAdmissionStats stats = service.admission().stats("t1");
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected_ops, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ServiceTest, ConcurrencyQuotaIsSlotBased) {
  AdmissionController admission;
  admission.set_quota("t", TenantQuota{0.0, 0.0, /*max_concurrent=*/1});
  Ticket held = admission.admit("t");
  EXPECT_TRUE(held.admitted());
  try {
    admission.admit("t");
    FAIL() << "second concurrent request should be rejected";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.quota(), "concurrency");
  }
  held.release();
  EXPECT_TRUE(admission.admit("t").admitted());
  EXPECT_EQ(admission.stats("t").rejected_concurrency, 1u);
}

TEST_F(ServiceTest, WriteBytesQuotaChargedUpFront) {
  Service service(*store_);
  // ~1 KB/s: the first small write fits the burst, a second immediately
  // after does not.
  service.admission().set_quota(
      "w", TenantQuota{0.0, /*bytes_per_sec=*/1024.0, 0});
  Session session = service.session("w");
  const CoordBuffer coords = grid_coords(0, 5);  // 25 points = 600 bytes
  const std::vector<value_t> values = values_for(coords, 1.0);
  session.write(coords, values, OrgKind::kCoo);
  try {
    session.write(coords, values, OrgKind::kCoo);
    FAIL() << "second write should exhaust the byte quota";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.quota(), "bytes");
  }
  EXPECT_EQ(store_->fragment_count(), 1u);  // rejected write ran nothing
}

TEST_F(ServiceTest, ReadBytesArePostPaid) {
  Service service(*store_);
  Session seed = service.session("seeder");
  const CoordBuffer coords = grid_coords(0, 16);
  seed.write(coords, values_for(coords, 1.0), OrgKind::kGcsr);

  service.admission().set_quota(
      "r", TenantQuota{0.0, /*bytes_per_sec=*/64.0, 0});
  Session session = service.session("r");
  // Admitted optimistically (nothing debited up front for reads), but the
  // result's bytes land as debt...
  session.scan(Box({0, 0}, {16, 16}));
  // ...so the next request bounces on the bytes axis.
  try {
    session.scan(Box({0, 0}, {16, 16}));
    FAIL() << "post-paid debt should reject the follow-up";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.quota(), "bytes");
  }
}

TEST_F(ServiceTest, PerTenantMetricsAndSpansCarryTenant) {
  Service service(*store_);
  Session session = service.session("acme");
  const CoordBuffer coords = grid_coords(0, 4);
  session.write(coords, values_for(coords, 2.0), OrgKind::kCoo);
  session.scan(Box({0, 0}, {4, 4}));

  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  EXPECT_GE(snapshot.value("artsparse_tenant_ops_total",
                           {{"tenant", "acme"}}),
            2.0);
  EXPECT_GT(snapshot.value("artsparse_tenant_write_bytes_total",
                           {{"tenant", "acme"}}),
            0.0);
  EXPECT_GE(snapshot.value("artsparse_service_admitted_total",
                           {{"tenant", "acme"}}),
            2.0);
}

TEST_F(ServiceTest, ScanBatchByteIdenticalToSequential) {
  // Budget-0 cache: every resolution loads from disk, so the miss count
  // below is exactly the number of fragment decodes performed.
  auto cache = std::make_shared<FragmentCache>(0);
  FragmentStore store(fresh_temp_dir("batch"), Shape{64, 64},
                      DeviceModel::unthrottled(), CodecKind::kIdentity,
                      cache);
  const CoordBuffer a = grid_coords(0, 24);
  const CoordBuffer b = grid_coords(20, 48);
  const CoordBuffer c = grid_coords(40, 64);
  store.write(a, values_for(a, 1.0), OrgKind::kGcsr);
  store.write(b, values_for(b, 2.0), OrgKind::kCoo);
  store.write(c, values_for(c, 3.0), OrgKind::kSortedCoo);

  // Overlapping regions: every region touches at least two fragments.
  const std::vector<Box> regions = {
      Box({0, 0}, {30, 30}),
      Box({10, 10}, {50, 50}),
      Box({22, 22}, {63, 63}),
  };
  const std::vector<ReadResult> sequential = {
      store.scan_region(regions[0]),
      store.scan_region(regions[1]),
      store.scan_region(regions[2]),
  };

  cache->reset_stats();
  const std::vector<ReadResult> batched =
      store.snapshot().scan_batch(regions);

  ASSERT_EQ(batched.size(), sequential.size());
  std::size_t touches = 0;
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].coords, sequential[i].coords) << "region " << i;
    EXPECT_EQ(batched[i].values, sequential[i].values) << "region " << i;
    EXPECT_EQ(batched[i].fragments_visited,
              sequential[i].fragments_visited);
    touches += batched[i].fragments_visited;
  }
  // The batch touched 3 fragments across 7 (region, fragment) pairs but —
  // the point of batching — decoded each exactly once.
  EXPECT_GT(touches, store.fragment_count());
  EXPECT_EQ(cache->stats().misses, store.fragment_count());
  std::filesystem::remove_all(store.directory());

  // Past Manifest::kRtreeThreshold fragments discovery goes through the
  // R-tree. 36 overlapping 12x12 blocks on a 10-cell pitch, every org, so
  // cells written by up to four fragments must merge in write order.
  FragmentStore wide(fresh_temp_dir("batch_rtree"), Shape{64, 64},
                     DeviceModel::unthrottled(), CodecKind::kIdentity, cache);
  const std::vector<OrgKind> orgs = all_org_kinds();
  for (index_t i = 0; i < 36; ++i) {
    CoordBuffer block(2);
    for (index_t r = 0; r < 12; ++r) {
      for (index_t c = 0; c < 12; ++c) {
        block.append({(i % 6) * 10 + r, (i / 6) * 10 + c});
      }
    }
    wide.write(block, values_for(block, static_cast<double>(i + 1)),
               orgs[static_cast<std::size_t>(i) % orgs.size()]);
  }
  ASSERT_GE(wide.fragment_count(), Manifest::kRtreeThreshold);
  const std::vector<Box> wide_regions = {
      Box({0, 0}, {30, 30}),  Box({10, 10}, {50, 50}), Box({25, 5}, {63, 40}),
      Box({0, 0}, {63, 63}),  Box({61, 61}, {63, 63}), Box({9, 9}, {11, 11}),
  };
  const auto expect_batch_matches_sequential = [&](const char* label,
                                                   std::size_t unloadable) {
    std::vector<ReadResult> one_by_one;
    for (const Box& region : wide_regions) {
      one_by_one.push_back(wide.scan_region(region));
    }
    cache->reset_stats();
    const std::vector<ReadResult> batch =
        wide.snapshot().scan_batch(wide_regions);
    ASSERT_EQ(batch.size(), one_by_one.size()) << label;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].coords, one_by_one[i].coords) << label << i;
      EXPECT_EQ(batch[i].values, one_by_one[i].values) << label << i;
      EXPECT_EQ(batch[i].fragments_visited, one_by_one[i].fragments_visited)
          << label << i;
      ASSERT_EQ(batch[i].skipped.size(), one_by_one[i].skipped.size())
          << label << i;
      for (std::size_t k = 0; k < batch[i].skipped.size(); ++k) {
        EXPECT_EQ(batch[i].skipped[k].path, one_by_one[i].skipped[k].path);
        EXPECT_EQ(batch[i].skipped[k].error, one_by_one[i].skipped[k].error);
      }
    }
    // The whole-store region touches every fragment: one decode each (a
    // load that fails is not a miss).
    EXPECT_EQ(cache->stats().misses, wide.fragment_count() - unloadable)
        << label;
  };
  expect_batch_matches_sequential("rtree region ", 0);

  // kSkip with one fragment torn after open: both paths drop the same
  // fragment with the same error and return the same points.
  wide.set_read_fault_policy(ReadFaultPolicy::kSkip);
  const std::string torn =
      wide.snapshot().manifest().entries()[7].path();
  const Bytes whole = read_file(torn);
  write_file(torn, Bytes(whole.begin(), whole.begin() + 16));
  expect_batch_matches_sequential("kSkip region ", 1);
  const ReadResult everything = wide.scan_region(Box({0, 0}, {63, 63}));
  ASSERT_EQ(everything.skipped.size(), 1u);
  EXPECT_EQ(everything.skipped[0].path, torn);
  std::filesystem::remove_all(wide.directory());
}

TEST_F(ServiceTest, ScanBatchPinsBytesForTheDuration) {
  const CoordBuffer coords = grid_coords(0, 16);
  store_->write(coords, values_for(coords, 1.0), OrgKind::kGcsr);
  EXPECT_EQ(store_->cache().stats().pinned_bytes, 0u);
  store_->snapshot().scan_batch(
      std::vector<Box>{Box({0, 0}, {16, 16}), Box({4, 4}, {12, 12})});
  // Pins are released when the batch returns; the gauge must balance.
  EXPECT_EQ(store_->cache().stats().pinned_bytes, 0u);
}

TEST_F(ServiceTest, ConcurrentSessionScansMatchScanRegion) {
  const CoordBuffer coords = grid_coords(0, 32);
  store_->write(coords, values_for(coords, 1.0), OrgKind::kGcsr);
  Service service(*store_);
  const Box region({0, 0}, {32, 32});
  const ReadResult expected = store_->scan_region(region);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = service.session("tenant" + std::to_string(t % 2));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ReadResult result = session.scan(region);
        if (result.coords != expected.coords ||
            result.values != expected.values) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);

  // Each Session::scan is a batch of one region, and a scan_batch is one
  // batch of its regions.
  constexpr std::uint64_t kScans = kThreads * kOpsPerThread;
  BatchStats stats = service.batch_stats();
  EXPECT_EQ(stats.batches, kScans);
  EXPECT_EQ(stats.requests, kScans);
  EXPECT_EQ(stats.max_batch, 1u);
  EXPECT_EQ(stats.coalesced(), 0u);
  service.session("tenant0").scan_batch({});  // no regions: no batch
  service.session("tenant0").scan_batch(std::vector<Box>(3, region));
  stats = service.batch_stats();
  EXPECT_EQ(stats.batches, kScans + 1);
  EXPECT_EQ(stats.requests, kScans + 3);
  EXPECT_EQ(stats.max_batch, 3u);
}

TEST_F(ServiceTest, SnapshotPinsGenerationAcrossWrites) {
  const CoordBuffer first = grid_coords(0, 8);
  store_->write(first, values_for(first, 1.0), OrgKind::kCoo);
  const Snapshot snapshot = store_->snapshot();
  const std::uint64_t pinned_generation = snapshot.generation();
  const ReadResult before = snapshot.scan_region(Box({0, 0}, {63, 63}));

  const CoordBuffer second = grid_coords(8, 16);
  store_->write(second, values_for(second, 2.0), OrgKind::kCoo);
  EXPECT_GT(store_->generation(), pinned_generation);

  // The pinned snapshot still answers from its generation...
  const ReadResult after = snapshot.scan_region(Box({0, 0}, {63, 63}));
  EXPECT_EQ(after.coords, before.coords);
  EXPECT_EQ(after.values, before.values);
  // ...while a fresh one sees both writes.
  EXPECT_GT(store_->scan_region(Box({0, 0}, {63, 63})).values.size(),
            before.values.size());
}

TEST_F(ServiceTest, DeferredDeletionKeepsPinnedFilesAlive) {
  const CoordBuffer coords = grid_coords(0, 8);
  const WriteResult written =
      store_->write(coords, values_for(coords, 1.0), OrgKind::kCoo);
  {
    const Snapshot snapshot = store_->snapshot();
    store_->clear();
    EXPECT_EQ(store_->fragment_count(), 0u);
    // The cleared fragment's file survives as long as the snapshot pins
    // it, and reads through the snapshot still resolve it.
    EXPECT_TRUE(std::filesystem::exists(written.path));
    EXPECT_EQ(snapshot.scan_region(Box({0, 0}, {8, 8})).values.size(),
              coords.size());
  }
  // Last reference released: the doomed file unlinks.
  EXPECT_FALSE(std::filesystem::exists(written.path));
}

TEST_F(ServiceTest, FragmentIdsAreNeverRecycled) {
  const CoordBuffer coords = grid_coords(0, 4);
  const WriteResult first =
      store_->write(coords, values_for(coords, 1.0), OrgKind::kCoo);
  store_->clear();
  const WriteResult second =
      store_->write(coords, values_for(coords, 2.0), OrgKind::kCoo);
  EXPECT_NE(first.path, second.path);
}

TEST_F(ServiceTest, GenerationGaugeTracksStore) {
  const std::uint64_t generation = store_->generation();
  const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
  EXPECT_EQ(snapshot.value("artsparse_store_generation",
                           {{"store", dir_.string()}}),
            static_cast<double>(generation));
}

// --- deadlines and cancellation at the session boundary -----------------

TEST_F(ServiceTest, SessionDeadlineBoundsScanAgainstSlowDevice) {
  FaultInjector::instance().reset();
  const CoordBuffer coords = grid_coords(0, 8);
  store_->write(coords, values_for(coords, 1.0), OrgKind::kCoo);
  Service service(*store_, TenantQuota{});
  const Box region({0, 0}, {31, 31});

  // Every read syscall stalls 50 ms; the session budget is 5 ms. The op
  // must end in bounded time with the typed error, not wait out stalls.
  for (std::size_t nth = 1; nth <= 8; ++nth) {
    FaultInjector::instance().arm_delay(FaultOp::kOpenRead, nth, 50);
    FaultInjector::instance().arm_delay(FaultOp::kRead, nth, 50);
  }
  Session budgeted = service.session("t").with_deadline_ms(5);
  EXPECT_EQ(budgeted.deadline_ms(), 5u);
  WallTimer timer;
  EXPECT_THROW(budgeted.scan(region), DeadlineExceededError);
  EXPECT_LT(timer.seconds(), 2.0);
  FaultInjector::instance().reset();

  // The same scan without a budget (and without stalls) just works —
  // with_deadline_ms returned a copy, the base session is untouched.
  Session unbudgeted = service.session("t");
  EXPECT_EQ(unbudgeted.deadline_ms(), 0u);
  EXPECT_EQ(unbudgeted.scan(region).values.size(), coords.size());
}

TEST_F(ServiceTest, SessionDefaultDeadlineComesFromTheQuota) {
  TenantQuota quota;
  quota.deadline_ms = 1234;
  Service service(*store_, quota);
  EXPECT_EQ(service.session("t").deadline_ms(), 1234u);
  EXPECT_EQ(service.session("t").with_deadline_ms(0).deadline_ms(), 0u);
}

TEST_F(ServiceTest, SessionCancelStopsItsOpsButNotOtherSessions) {
  const CoordBuffer coords = grid_coords(0, 4);
  store_->write(coords, values_for(coords, 1.0), OrgKind::kCoo);
  Service service(*store_, TenantQuota{});
  const Box region({0, 0}, {16, 16});

  Session doomed = service.session("t");
  Session copy = doomed.with_deadline_ms(500);  // shares the token
  Session other = service.session("t");

  doomed.cancel();
  EXPECT_TRUE(doomed.cancel_token().cancelled());
  EXPECT_THROW(doomed.scan(region), CancelledError);
  EXPECT_THROW(copy.scan(region), CancelledError);
  EXPECT_EQ(other.scan(region).values.size(), coords.size())
      << "cancelling one session must not touch its siblings";

  // cancel_all fans out through the service root token.
  service.cancel_all();
  EXPECT_THROW(other.scan(region), CancelledError);

  // Accounting still balances: cancelled ops were admitted, then failed.
  EXPECT_EQ(service.admission().stats("t").in_flight, 0u);
}

TEST_F(ServiceTest, CancelledSessionScanFailsBeforeAnyWork) {
  const CoordBuffer coords = grid_coords(0, 4);
  store_->write(coords, values_for(coords, 1.0), OrgKind::kCoo);
  Service service(*store_, TenantQuota{});
  Session session = service.session("t");
  session.cancel();

  // The engine checks the budget per fragment, and this region overlaps
  // none: only the entry check can see the cancel.
  EXPECT_THROW(session.scan(Box({32, 32}, {63, 63})), CancelledError);
  EXPECT_EQ(service.admission().stats("t").in_flight, 0u);

  // Under kSkip the engine turns a spent budget into skipped partials.
  store_->set_read_fault_policy(ReadFaultPolicy::kSkip);
  EXPECT_THROW(session.scan(Box({0, 0}, {16, 16})), CancelledError);
  EXPECT_EQ(service.admission().stats("t").in_flight, 0u);
}

TEST_F(ServiceTest, AdmissionWaitsUnderDeadlineUntilSlotFrees) {
  AdmissionController admission;
  admission.set_quota("t", TenantQuota{0.0, 0.0, /*max_concurrent=*/1});
  Ticket held = admission.admit("t");

  // No ambient deadline: the legacy immediate shed.
  EXPECT_THROW(admission.admit("t"), OverloadedError);

  // Bounded deadline: the admit queues and wins once the slot frees.
  std::atomic<bool> waited_ok{false};
  parallel_for_each(
      2,
      [&](std::size_t which) {
        if (which == 0) {
          const ScopedOpContext scope(
              OpContext{Deadline::after_ms(5000), CancelToken()});
          const Ticket waited = admission.admit("t");
          waited_ok.store(waited.admitted(), std::memory_order_relaxed);
        } else {
          interruptible_sleep(0.020, OpContext{});
          held.release();
        }
      },
      /*threads=*/2, /*grain=*/1);
  EXPECT_TRUE(waited_ok.load());
  EXPECT_EQ(admission.stats("t").in_flight, 0u);
}

TEST_F(ServiceTest, AdmissionWaitExpiresIntoTheSameTypedRejection) {
  AdmissionController admission;
  admission.set_quota("t", TenantQuota{0.0, 0.0, /*max_concurrent=*/1});
  const Ticket held = admission.admit("t");
  const ScopedOpContext scope(
      OpContext{Deadline::after_ms(40), CancelToken()});
  WallTimer timer;
  try {
    admission.admit("t");
    FAIL() << "expected OverloadedError after the budget ran out";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.tenant(), "t");
    EXPECT_EQ(e.quota(), "concurrency");
  }
  EXPECT_GE(timer.seconds(), 0.030) << "the admit must use its budget";
  EXPECT_LT(timer.seconds(), 2.0) << "and stop once the budget is gone";
  EXPECT_EQ(admission.stats("t").rejected_concurrency, 1u);
}

}  // namespace
}  // namespace artsparse
