#include "service/batch.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/deadline.hpp"
#include "obs/metrics.hpp"

namespace artsparse {

namespace {

/// Poll granularity for a follower waiting on its leader's batch: the
/// shared future carries no budget of its own, so the wait re-checks the
/// follower's ambient deadline/cancel token at this interval.
constexpr std::chrono::milliseconds kFollowerPoll{2};

/// A batched scan observes the CALLER's budget at entry and while waiting
/// as a follower — the leader enforces only its own. Without this, a
/// cancelled or expired caller would be held hostage by a healthy leader
/// and return a result nobody wants.
void check_caller_budget(const OpContext& ctx) {
  check_op_budget(ctx, "scan cancelled while batched",
                  "deadline expired while scan was batched");
}

}  // namespace

ReadResult BatchedReader::scan(const Box& region) {
  const OpContext ctx = current_op_context();
  check_caller_budget(ctx);
  auto pending = std::make_shared<Pending>();
  pending->region = region;
  std::future<ReadResult> future = pending->promise.get_future();

  bool lead = false;
  {
    const MutexLock lock(mutex_);
    queue_.push_back(pending);
    if (!leader_active_) {
      leader_active_ = true;
      lead = true;
    }
  }
  if (!lead) {
    if (!ctx.bounded()) return future.get();
    // Budgeted follower: poll the own budget while the leader works. The
    // abandoned promise stays valid (shared_ptr), so the leader can still
    // fulfill it harmlessly after we bail.
    while (future.wait_for(kFollowerPoll) != std::future_status::ready) {
      check_caller_budget(ctx);
    }
    return future.get();
  }

  // Leader: keep draining until no new scans queued up behind us. Each
  // drain is one pinned snapshot + one scan_batch, so everything that
  // queued together reads one consistent generation and shares fragment
  // decodes.
  while (true) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      const MutexLock lock(mutex_);
      batch.swap(queue_);
      if (batch.empty()) {
        leader_active_ = false;
        break;
      }
      ++stats_.batches;
      stats_.requests += batch.size();
      stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch,
                                                 batch.size());
    }
    ARTSPARSE_COUNT("artsparse_service_batches_total", 1);
    ARTSPARSE_COUNT("artsparse_service_batched_requests_total", batch.size());
    ARTSPARSE_OBSERVE("artsparse_service_batch_size",
                      static_cast<double>(batch.size()));

    std::vector<Box> regions;
    regions.reserve(batch.size());
    for (const auto& entry : batch) {
      regions.push_back(entry->region);
    }
    try {
      const Snapshot snapshot = store_.snapshot();
      std::vector<ReadResult> results = snapshot.scan_batch(regions);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->promise.set_value(std::move(results[i]));
      }
    } catch (...) {
      // scan_batch is all-or-nothing (it throws before returning), so no
      // promise in this batch has been fulfilled yet.
      for (const auto& entry : batch) {
        entry->promise.set_exception(std::current_exception());
      }
    }
  }
  return future.get();
}

BatchStats BatchedReader::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

}  // namespace artsparse
