#include "service/service.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsparse {

Service::Service(FragmentStore& store, TenantQuota default_quota)
    : store_(store), admission_(default_quota) {}

void Service::count_batch(std::size_t regions) {
  if (regions == 0) return;  // scans nothing; keeps requests >= batches
  const MutexLock lock(batch_mutex_);
  ++batch_stats_.batches;
  batch_stats_.requests += regions;
  batch_stats_.max_batch =
      std::max<std::uint64_t>(batch_stats_.max_batch, regions);
}

Session Service::session(std::string tenant) {
  return Session(this, std::move(tenant),
                 admission_.default_quota().deadline_ms,
                 root_cancel_.child());
}

std::size_t Session::result_bytes(const ReadResult& result) {
  return result.values.size() * sizeof(value_t) +
         result.coords.size() * result.coords.rank() * sizeof(index_t);
}

std::size_t Session::result_bytes(const std::vector<ReadResult>& results) {
  std::size_t bytes = 0;
  for (const ReadResult& result : results) bytes += result_bytes(result);
  return bytes;
}

template <typename Op>
auto Session::admitted(const char* span_name, SpanCount count,
                       std::size_t payload, Op&& op) {
  // Install the budget before admission so over-quota waits (and
  // everything after) are bounded by the same per-op deadline.
  const ScopedOpContext op_scope(op_context());
  const Ticket ticket = service_->admission_.admit(tenant_, payload);
  ARTSPARSE_SPAN_TYPE span(span_name, "service");
  span.attr("tenant", tenant_);
  if (deadline_ms_ != 0) span.attr("deadline_ms", deadline_ms_);
  if (count.name != nullptr) span.attr(count.name, count.value);
  ARTSPARSE_COUNT_L("artsparse_tenant_ops_total", "tenant", tenant_, 1);
  auto result = op();
  if constexpr (!std::is_same_v<decltype(result), WriteResult>) {
    // Reads are post-paid: the bytes shipped back debit the byte quota.
    const std::size_t bytes = result_bytes(result);
    ARTSPARSE_COUNT_L("artsparse_tenant_read_bytes_total", "tenant", tenant_,
                      bytes);
    service_->admission_.charge_bytes(tenant_, bytes);
  }
  return result;
}

WriteResult Session::write(const CoordBuffer& coords,
                           std::span<const value_t> values, OrgKind org) {
  const std::size_t payload =
      values.size() * sizeof(value_t) +
      coords.size() * coords.rank() * sizeof(index_t);
  return admitted("service.write", {"points", coords.size()}, payload, [&] {
    ARTSPARSE_COUNT_L("artsparse_tenant_write_bytes_total", "tenant", tenant_,
                      payload);
    return service_->store_.write(coords, values, org);
  });
}

ReadResult Session::read(const CoordBuffer& queries) {
  return admitted("service.read", {"queries", queries.size()}, 0,
                  [&] { return service_->store_.read(queries); });
}

ReadResult Session::read_region(const Box& region) {
  return admitted("service.read_region", {}, 0,
                  [&] { return service_->store_.read_region(region); });
}

ReadResult Session::scan(const Box& region) {
  return admitted("service.scan", {}, 0, [&] {
    // Admission ignores the budget and the engine checks it per fragment
    // (kSkip even skips instead), so a spent one fails here, typed.
    check_op_budget(current_op_context(), "scan cancelled before it started",
                    "deadline expired before scan started");
    service_->count_batch(1);
    return service_->store_.scan_region(region);
  });
}

std::vector<ReadResult> Session::scan_batch(std::span<const Box> regions) {
  return admitted("service.scan_batch", {"regions", regions.size()}, 0, [&] {
    service_->count_batch(regions.size());
    return service_->store_.snapshot().scan_batch(regions);
  });
}

Snapshot Session::snapshot() const { return service_->store_.snapshot(); }

}  // namespace artsparse
