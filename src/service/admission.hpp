// Admission control: per-tenant quotas enforced at the service boundary.
//
// Every Session operation passes through AdmissionController::admit()
// before any storage work runs. Three independent quota axes per tenant,
// each built on storage/throttle's TokenBucket (ops/sec, bytes/sec) or a
// plain in-flight counter (concurrency). Over-quota requests are rejected
// immediately with a typed OverloadedError naming the tenant and the axis
// — admission control sheds load, it does not queue it.
//
// Byte quotas are charged in two halves: writes debit their payload at
// admit time (the size is known), reads admit optimistically and
// force-debit the bytes actually returned afterwards, which can push the
// bucket into debt and throttle that tenant's *next* request — the
// standard post-paid model for responses of unknown size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_safety.hpp"
#include "storage/throttle.hpp"

namespace artsparse {

/// Per-tenant limits. 0 on any axis means unlimited on that axis, so the
/// default-constructed quota admits everything.
struct TenantQuota {
  double ops_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  std::size_t max_concurrent = 0;
  /// Default per-operation time budget for this tenant's sessions
  /// (core/deadline.hpp); 0 means unbounded. Sessions can override per op
  /// with Session::with_deadline_ms. Not a quota axis: it bounds how long
  /// an admitted op may run (and how long admission may wait), not whether
  /// it is admitted.
  std::uint64_t deadline_ms = 0;

  /// True when every *quota axis* is unlimited (deadline_ms is a time
  /// budget, not an admission axis, and does not participate).
  bool unlimited() const {
    return ops_per_sec == 0.0 && bytes_per_sec == 0.0 && max_concurrent == 0;
  }

  /// Default quota from the ARTSPARSE_TENANT_OPS_PER_SEC,
  /// ARTSPARSE_TENANT_BYTES_PER_SEC, ARTSPARSE_TENANT_MAX_CONCURRENT, and
  /// ARTSPARSE_TENANT_DEADLINE_MS environment knobs. Parsed with the
  /// hardened core/env contract: malformed values (trailing garbage,
  /// signs, empty) are ignored, and absurd values clamp to sane maxima
  /// (1e9 ops/s, 1 TiB/s, 1e6 concurrent, 24 h deadline).
  static TenantQuota from_env();
};

/// Point-in-time admission counters for one tenant.
struct TenantAdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_ops = 0;
  std::uint64_t rejected_bytes = 0;
  std::uint64_t rejected_concurrency = 0;
  std::size_t in_flight = 0;

  std::uint64_t rejected() const {
    return rejected_ops + rejected_bytes + rejected_concurrency;
  }
};

class AdmissionController;

/// RAII admission: holding a Ticket is holding one slot of the tenant's
/// concurrency quota; the slot frees on destruction. Move-only.
class Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&& other) noexcept { *this = std::move(other); }
  Ticket& operator=(Ticket&& other) noexcept;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;
  ~Ticket() { release(); }

  bool admitted() const { return state_ != nullptr; }
  void release();

 private:
  friend class AdmissionController;
  struct State;
  explicit Ticket(State* state) : state_(state) {}
  State* state_ = nullptr;
};

/// Thread-safe per-tenant quota enforcement. Tenants appear lazily on
/// first admit with the controller's default quota; set_quota() overrides
/// per tenant at any time (applies to subsequent admits).
class AdmissionController {
 public:
  explicit AdmissionController(TenantQuota default_quota = TenantQuota());
  ~AdmissionController();  ///< out of line: Ticket::State is incomplete here

  /// Admits one operation for `tenant`, debiting 1 op token and
  /// `estimated_bytes` byte tokens. Throws OverloadedError (naming the
  /// exhausted axis) without debiting anything when any axis rejects.
  /// The returned Ticket holds the concurrency slot.
  ///
  /// When the ambient OpContext carries a bounded deadline, an over-quota
  /// request queues instead of shedding immediately: token and slot waits
  /// are bounded by the remaining budget, then reject with the same typed
  /// OverloadedError. Without a deadline the behavior is unchanged —
  /// admission never waits unboundedly.
  Ticket admit(const std::string& tenant, std::size_t estimated_bytes = 0);

  /// Post-paid byte charge (reads): debits unconditionally, possibly into
  /// debt. No-op for tenants without a bytes quota.
  void charge_bytes(const std::string& tenant, std::size_t bytes);

  /// Replaces `tenant`'s quota (rebuilding its buckets full). Counters
  /// survive; in-flight tickets from the old quota still release safely.
  void set_quota(const std::string& tenant, const TenantQuota& quota);

  const TenantQuota& default_quota() const { return default_quota_; }

  TenantAdmissionStats stats(const std::string& tenant) const;

  /// Tenants seen so far (admitted or rejected at least once).
  std::vector<std::string> tenants() const;

 private:
  /// Finds or lazily creates `tenant`'s state: reader-locked lookup on the
  /// hot path, writer-locked insert the first time a tenant appears. The
  /// returned reference outlives the lock — states are never erased.
  Ticket::State& state_for(const std::string& tenant)
      ARTSPARSE_EXCLUDES(mutex_);

  const TenantQuota default_quota_;
  /// Guards the tenant map only; each State carries its own mutex for
  /// quota/bucket swaps, so one tenant's set_quota never stalls another's
  /// admit.
  mutable SharedMutex mutex_;
  /// Stable addresses: Ticket holds a raw State* across the map's growth.
  std::map<std::string, std::unique_ptr<Ticket::State>> tenants_
      ARTSPARSE_GUARDED_BY(mutex_);
};

}  // namespace artsparse
