// Service: the embeddable multi-tenant server core. Wraps one
// FragmentStore (tiled writes included: they are fragments of a
// FragmentStore too) and layers on what a store embedded in a shared
// service needs:
//
//   - Sessions: every request carries a tenant id, which flows into
//     per-tenant obs metrics (artsparse_tenant_*) and trace-span
//     attributes, so one tenant's traffic is attributable end to end.
//   - Admission control (service/admission.hpp): per-tenant ops/sec,
//     bytes/sec, and concurrency quotas, enforced before any storage work
//     runs; over-quota requests fail fast with a typed OverloadedError.
//   - Reads run the store's one read engine directly; Session::scan_batch
//     is the caller-batched path (each touched fragment decodes once).
//   - Snapshots: sessions can pin a generation and run any number of
//     consistent reads against it while writers and consolidation proceed.
//
// The Service owns no threads; callers bring their own (it is a library
// core, not a daemon). All members are thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deadline.hpp"
#include "core/thread_safety.hpp"
#include "service/admission.hpp"
#include "storage/fragment_store.hpp"

namespace artsparse {

class Service;

/// Cumulative scan counters: each Session::scan is a batch of one region,
/// each Session::scan_batch one batch of its regions.
struct BatchStats {
  std::uint64_t batches = 0;   ///< scans and non-empty scan_batches run
  std::uint64_t requests = 0;  ///< regions scanned
  std::uint64_t max_batch = 0;

  /// Regions that shared a batch with at least one other region.
  std::uint64_t coalesced() const { return requests - batches; }
};

/// One tenant's handle onto the service. Cheap to create (one string),
/// cheap to copy, safe to use from many threads at once — requests, not
/// sessions, are the unit of concurrency. Every operation below is
/// admission-checked and attributed to the tenant.
class Session {
 public:
  const std::string& tenant() const { return tenant_; }

  /// Per-operation time budget in milliseconds (0 = unbounded). Seeded
  /// from the tenant quota's deadline_ms at session creation.
  std::uint64_t deadline_ms() const { return deadline_ms_; }

  /// A copy of this session whose operations run under an `ms`-millisecond
  /// budget (0 removes the budget). The budget bounds the *whole* op:
  /// admission waits, retry backoff, throttle charges, and per-fragment
  /// scan work all observe it; on expiry the op fails with a typed
  /// DeadlineExceededError (or, under ReadPolicy::kSkip, returns partial
  /// results with the starved fragments marked skipped).
  Session with_deadline_ms(std::uint64_t ms) const {
    Session copy(*this);
    copy.deadline_ms_ = ms;
    return copy;
  }

  /// Cooperatively cancels every in-flight and future operation issued
  /// through this session (and its with_deadline_ms copies, which share
  /// the token). In-flight ops stop at their next check with a typed
  /// CancelledError. Does not affect other sessions.
  void cancel() const { cancel_.cancel(); }

  /// The session's cancel token: a child of the service-wide root, so
  /// Service-level cancellation reaches every session.
  const CancelToken& cancel_token() const { return cancel_; }

  /// Admission-checked write; payload bytes debit the tenant's byte
  /// quota up front (the size is known before any work runs).
  WriteResult write(const CoordBuffer& coords,
                    std::span<const value_t> values, OrgKind org);

  /// Admission-checked point read. Result bytes are charged to the byte
  /// quota after the fact (post-paid; see AdmissionController).
  ReadResult read(const CoordBuffer& queries);

  /// Admission-checked cell-by-cell region read.
  ReadResult read_region(const Box& region);

  /// Admission-checked box scan on a fresh snapshot. A cancelled or
  /// expired session fails with the typed error before any scan work.
  ReadResult scan(const Box& region);

  /// Admission-checked batch of box scans from this one request, executed
  /// against a single pinned snapshot (each touched fragment decodes
  /// once). One admission ticket covers the whole batch.
  std::vector<ReadResult> scan_batch(std::span<const Box> regions);

  /// Pins the current generation for consistent multi-read work. The
  /// snapshot itself is not admission-checked (it does no I/O); reads
  /// through it bypass admission, so hand it out accordingly.
  Snapshot snapshot() const;

 private:
  friend class Service;
  Session(Service* service, std::string tenant, std::uint64_t deadline_ms,
          CancelToken cancel)
      : service_(service),
        tenant_(std::move(tenant)),
        deadline_ms_(deadline_ms),
        cancel_(std::move(cancel)) {}

  /// Bytes a result ships back to the client (coords + values).
  static std::size_t result_bytes(const ReadResult& result);
  static std::size_t result_bytes(const std::vector<ReadResult>& results);

  /// An op's size attribute on its span ("points", "queries", "regions");
  /// none when `name` is null.
  struct SpanCount {
    const char* name = nullptr;
    std::uint64_t value = 0;
  };

  /// The path every operation takes: installs op_context(), admits with
  /// `payload` bytes prepaid, opens the `span_name` span with the tenant,
  /// deadline and `count` attributes, counts the tenant op, runs `op`, and
  /// charges a read's result bytes to the tenant afterwards.
  template <typename Op>
  auto admitted(const char* span_name, SpanCount count, std::size_t payload,
                Op&& op);

  /// The budget every operation installs (ScopedOpContext) before
  /// admission: fresh deadline from deadline_ms_ plus the session token.
  OpContext op_context() const {
    return OpContext{deadline_ms_ == 0 ? Deadline::never()
                                       : Deadline::after_ms(deadline_ms_),
                     cancel_};
  }

  Service* service_;
  std::string tenant_;
  std::uint64_t deadline_ms_ = 0;
  CancelToken cancel_;
};

class Service {
 public:
  /// `default_quota` applies to tenants without an explicit set_quota();
  /// the default default comes from the ARTSPARSE_TENANT_* environment
  /// knobs (see TenantQuota::from_env).
  explicit Service(FragmentStore& store,
                   TenantQuota default_quota = TenantQuota::from_env());

  /// A handle for `tenant`. No registration needed; tenants exist from
  /// their first request. The session's default deadline comes from the
  /// default quota's deadline_ms; its cancel token is a child of the
  /// service-wide root.
  Session session(std::string tenant);

  /// Cancels every session handed out by this service (and all their
  /// in-flight operations). Irreversible; meant for shutdown.
  void cancel_all() const { root_cancel_.cancel(); }

  FragmentStore& store() { return store_; }
  const FragmentStore& store() const { return store_; }
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  BatchStats batch_stats() const {
    const MutexLock lock(batch_mutex_);
    return batch_stats_;
  }

 private:
  friend class Session;
  /// Counts one admitted scan batch of `regions` regions (none: no batch).
  void count_batch(std::size_t regions);

  FragmentStore& store_;
  AdmissionController admission_;
  mutable Mutex batch_mutex_;
  BatchStats batch_stats_ ARTSPARSE_GUARDED_BY(batch_mutex_);
  /// Parent of every session token: cancel_all() fans out through it.
  CancelToken root_cancel_ = CancelToken::root();
};

}  // namespace artsparse
