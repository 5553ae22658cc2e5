// Retry/backoff coverage: errno classification via the IoError field,
// deterministic capped backoff delays, transient fault sequences that
// succeed within policy, exhausted retries surfacing the original error,
// and the attempt counters flowing into WriteBreakdown through
// FragmentStore writes and tiled writes.
#include "storage/retry.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <vector>

#include "core/error.hpp"
#include "storage/fault.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"
#include "tiles/tiled_write.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

class Retry : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().reset();
    dir_ = testing::fresh_temp_dir("retry");
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Fast schedule so tests sleep microseconds, not the production default.
  static RetryPolicy fast_policy(std::size_t max_attempts) {
    RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.base_delay_sec = 1e-6;
    policy.cap_delay_sec = 8e-6;
    return policy;
  }

  fs::path dir_;
};

Bytes payload(std::size_t n) {
  Bytes bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(i % 251);
  }
  return bytes;
}

TEST_F(Retry, ErrnoClassification) {
  EXPECT_TRUE(io_errno_retryable(EINTR));
  EXPECT_TRUE(io_errno_retryable(EAGAIN));
  EXPECT_TRUE(io_errno_retryable(ENOSPC));
  EXPECT_FALSE(io_errno_retryable(EIO));
  EXPECT_FALSE(io_errno_retryable(EACCES));
  EXPECT_FALSE(io_errno_retryable(0));

  // The three-way class behind the boolean: transient errnos get the full
  // retry budget, capacity errnos a bounded one, permanent ones none.
  EXPECT_EQ(io_errno_class(EINTR), IoErrnoClass::kTransient);
  EXPECT_EQ(io_errno_class(EAGAIN), IoErrnoClass::kTransient);
  EXPECT_EQ(io_errno_class(ETIMEDOUT), IoErrnoClass::kTransient);
  EXPECT_EQ(io_errno_class(ENOSPC), IoErrnoClass::kCapacity);
  EXPECT_EQ(io_errno_class(EIO), IoErrnoClass::kPermanent);
  EXPECT_EQ(io_errno_class(EACCES), IoErrnoClass::kPermanent);
  EXPECT_EQ(io_errno_class(0), IoErrnoClass::kPermanent);

  EXPECT_TRUE(IoError::with_errno("write", "p", EINTR).retryable());
  EXPECT_FALSE(IoError::with_errno("write", "p", EIO).retryable());
  EXPECT_EQ(IoError::with_errno("write", "p", ENOSPC).errno_value(),
            ENOSPC);
  EXPECT_EQ(IoError("short read").errno_value(), 0);
}

TEST_F(Retry, PersistentCapacityErrorSurfacesAfterBoundedRetries) {
  // Regression: ENOSPC used to be fully retryable, so a genuinely full
  // disk burned the whole max_attempts backoff schedule before failing.
  // Capacity errnos now get max_capacity_retries (default 1) and then
  // surface the ORIGINAL errno for the store health machinery to see.
  RetryPolicy policy = fast_policy(8);
  std::size_t runs = 0;
  try {
    retry_io(policy, [&] {
      ++runs;
      throw IoError::with_errno("write", "p", ENOSPC);
    });
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), ENOSPC);
  }
  EXPECT_EQ(runs, 2u) << "first try + exactly max_capacity_retries=1";
}

TEST_F(Retry, TransientEnospcStillClearsWithinTheCapacityBudget) {
  // One ENOSPC (a quota grant mid-flush) then success: the single
  // capacity retry is enough and the caller never sees the error.
  RetryPolicy policy = fast_policy(8);
  std::size_t runs = 0;
  const RetryStats stats = retry_io(policy, [&] {
    if (++runs == 1) throw IoError::with_errno("write", "p", ENOSPC);
  });
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(runs, 2u);
}

TEST_F(Retry, CapacityRetryBudgetIsConfigurable) {
  RetryPolicy policy = fast_policy(8);
  policy.max_capacity_retries = 3;
  std::size_t runs = 0;
  EXPECT_THROW(retry_io(policy,
                        [&] {
                          ++runs;
                          throw IoError::with_errno("write", "p", ENOSPC);
                        }),
               IoError);
  EXPECT_EQ(runs, 4u);

  policy.max_capacity_retries = 0;
  runs = 0;
  EXPECT_THROW(retry_io(policy,
                        [&] {
                          ++runs;
                          throw IoError::with_errno("write", "p", ENOSPC);
                        }),
               IoError);
  EXPECT_EQ(runs, 1u) << "zero budget: capacity errors fail immediately";
}

TEST_F(Retry, EnvForcedRepeatedEnospcIsBounded) {
  // The end-to-end regression shape: ARTSPARSE_FAULT_SPEC forces repeated
  // ENOSPC on the commit path; the write must surface ENOSPC after the
  // bounded capacity budget instead of exhausting max_attempts.
  ASSERT_EQ(setenv("ARTSPARSE_FAULT_SPEC",
                   "open:1:ENOSPC,open:2:ENOSPC,open:3:ENOSPC,"
                   "open:4:ENOSPC,open:5:ENOSPC,open:6:ENOSPC",
                   1),
            0);
  FaultInjector::instance().configure_from_env();
  unsetenv("ARTSPARSE_FAULT_SPEC");

  const std::string path = (dir_ / "frag.asf").string();
  try {
    atomic_write_file(path, payload(64), fast_policy(8));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), ENOSPC);
  }
  EXPECT_EQ(FaultInjector::instance().calls(FaultOp::kOpenWrite), 2u)
      << "first try + one capacity retry, not the full attempt budget";
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(Retry, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.base_delay_sec = 0.001;
  policy.cap_delay_sec = 0.008;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.delay_seconds(1), 0.001);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(2), 0.002);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(3), 0.004);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(4), 0.008);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(10), 0.008);  // capped
  EXPECT_DOUBLE_EQ(policy.delay_seconds(64), 0.008);  // no overflow
}

TEST_F(Retry, JitteredDelaysAreBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.base_delay_sec = 0.001;
  policy.cap_delay_sec = 0.008;
  policy.jitter = 0.5;
  for (std::size_t attempt = 1; attempt <= 12; ++attempt) {
    const double delay = policy.delay_seconds(attempt);
    EXPECT_GT(delay, 0.0);
    EXPECT_LE(delay, policy.cap_delay_sec * (1.0 + policy.jitter / 2.0));
    EXPECT_DOUBLE_EQ(delay, policy.delay_seconds(attempt))
        << "same seed + attempt must give the same delay";
  }
  RetryPolicy reseeded = policy;
  reseeded.seed = policy.seed + 1;
  EXPECT_NE(policy.delay_seconds(1), reseeded.delay_seconds(1));
}

TEST_F(Retry, ConcurrentCallsDrawDistinctJitterStreams) {
  // Seeding jitter with seed + attempt alone made every retry_io() call
  // sharing one policy sleep *identical* backoffs — a lockstep retry herd.
  // Each call must draw its own nonce and land on a distinct stream.
  RetryPolicy policy = fast_policy(4);
  policy.jitter = 0.9;
  EXPECT_NE(policy.delay_seconds(1, 1), policy.delay_seconds(1, 2));

  detail::reset_retry_nonce_for_testing(0);
  auto one_retry = [&] {
    bool failed = false;
    const RetryStats stats = retry_io(policy, [&] {
      if (!failed) {
        failed = true;
        throw IoError::with_errno("write", "p", EINTR);
      }
    });
    EXPECT_EQ(stats.retries, 1u);
    return stats.backoff_seconds;
  };
  const double first = one_retry();
  const double second = one_retry();
  EXPECT_NE(first, second) << "consecutive calls retried in lockstep";

  // Still deterministic: pinning the nonce counter reproduces the exact
  // backoff sequence under a fixed seed.
  detail::reset_retry_nonce_for_testing(0);
  EXPECT_DOUBLE_EQ(one_retry(), first);
  EXPECT_DOUBLE_EQ(one_retry(), second);

  // nonce 0 (the single-arg overload) keeps the legacy stream.
  EXPECT_DOUBLE_EQ(policy.delay_seconds(2), policy.delay_seconds(2, 0));
}

TEST_F(Retry, TransientSequenceSucceedsWithinPolicy) {
  // write #1 EINTR, write #2 EAGAIN; the third attempt commits.
  FaultInjector::instance().configure("write:1:EINTR,write:2:EAGAIN");
  const std::string path = (dir_ / "frag.asf").string();
  const Bytes data = payload(512);
  const RetryStats stats = atomic_write_file(path, data, fast_policy(4));
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GT(stats.backoff_seconds, 0.0);
  EXPECT_EQ(read_file(path), data);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(Retry, NonRetryableErrnoFailsWithoutRetrying) {
  FaultInjector::instance().configure("write:1:EIO");
  const std::string path = (dir_ / "frag.asf").string();
  try {
    atomic_write_file(path, payload(64), fast_policy(4));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EIO);
  }
  // One open, one write: the policy never re-entered the sequence.
  EXPECT_EQ(FaultInjector::instance().calls(FaultOp::kWrite), 1u);
  EXPECT_EQ(FaultInjector::instance().calls(FaultOp::kOpenWrite), 1u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(Retry, ExhaustedRetriesSurfaceTheOriginalError) {
  FaultInjector::instance().configure(
      "write:1:EINTR,write:2:EINTR,write:3:EINTR,write:4:EINTR");
  const std::string path = (dir_ / "frag.asf").string();
  try {
    atomic_write_file(path, payload(64), fast_policy(3));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), EINTR);
  }
  EXPECT_EQ(FaultInjector::instance().calls(FaultOp::kWrite), 3u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(Retry, RetryIoPropagatesNonIoErrorsUntouched) {
  const RetryPolicy policy = fast_policy(5);
  std::size_t runs = 0;
  EXPECT_THROW(retry_io(policy,
                        [&] {
                          ++runs;
                          throw FormatError("not an IO problem");
                        }),
               FormatError);
  EXPECT_EQ(runs, 1u);
}

TEST_F(Retry, WriteBreakdownSurfacesAttemptCounters) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  store.set_retry_policy(fast_policy(4));
  CoordBuffer coords(2);
  coords.append({4, 4});
  coords.append({5, 6});

  FaultInjector::instance().configure("write:1:EINTR");
  const WriteResult faulted =
      store.write(coords, std::vector<value_t>{1.0, 2.0}, OrgKind::kGcsr);
  FaultInjector::instance().reset();
  EXPECT_EQ(faulted.times.io_attempts, 2u);
  EXPECT_EQ(faulted.times.io_retries, 1u);
  EXPECT_GT(faulted.times.backoff, 0.0);

  const WriteResult clean =
      store.write(coords, std::vector<value_t>{3.0, 4.0}, OrgKind::kCoo);
  EXPECT_EQ(clean.times.io_attempts, 1u);
  EXPECT_EQ(clean.times.io_retries, 0u);
  EXPECT_DOUBLE_EQ(clean.times.backoff, 0.0);

  // Both fragments committed intact despite the transient fault: the scan
  // sees both copies of each of the two cells.
  const ReadResult all = store.scan_region(Box::whole(shape));
  EXPECT_EQ(all.values.size(), 4u);
}

TEST_F(Retry, TiledWriteCommitsEveryTileUnderATransientFault) {
  const Shape shape{16, 16};
  const TileGrid grid(shape, Shape{8, 8});
  FragmentStore store(dir_, shape);
  store.set_retry_policy(fast_policy(4));
  EXPECT_EQ(store.retry_policy().max_attempts, 4u);

  CoordBuffer coords(2);
  coords.append({1, 1});    // tile 0
  coords.append({9, 9});    // tile 3
  FaultInjector::instance().configure("write:1:EINTR");
  const TiledWriteResult result = write_tiled(
      store, grid, coords, std::vector<value_t>{1.0, 2.0}, OrgKind::kCoo);
  EXPECT_EQ(result.tiles_written, 2u);
  EXPECT_EQ(store.fragment_count(), 2u);
  EXPECT_EQ(store.scan_region(Box::whole(shape)).coords.size(), 2u);
}

}  // namespace
}  // namespace artsparse
