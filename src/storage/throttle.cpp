#include "storage/throttle.hpp"

#include <algorithm>
#include <chrono>

#include "core/timer.hpp"

namespace artsparse {

namespace {

/// Tail of the charge window served by spinning. Sleeping the whole window
/// would leave scheduler wake-up granularity (~ms, worse under load) in
/// the measurement; spinning the whole window burned a full core for the
/// entire modeled transfer. Sleep up to this close to the deadline, then
/// spin the rest for precision.
constexpr double kSpinTailSec = 1e-3;

}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec > 0.0 ? rate_per_sec : 0.0),
      burst_(burst >= 0.0 ? burst : rate_per_sec_),
      tokens_(burst >= 0.0 ? burst : rate_per_sec_),
      last_(std::chrono::steady_clock::now()) {}

void TokenBucket::refill_locked() const {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_).count();
  last_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
}

bool TokenBucket::try_acquire(double tokens) {
  if (!enabled()) return true;
  const MutexLock lock(mutex_);
  refill_locked();
  if (tokens_ < tokens) return false;
  tokens_ -= tokens;
  return true;
}

void TokenBucket::force_debit(double tokens) {
  if (!enabled()) return;
  const MutexLock lock(mutex_);
  refill_locked();
  tokens_ -= tokens;
}

bool TokenBucket::acquire_within(double tokens, const OpContext& ctx) {
  if (!enabled()) return true;
  if (!ctx.deadline.bounded()) {
    // No budget to bound the wait, so never block: quota waits are
    // deadline-bounded by construction.
    return try_acquire(tokens);
  }
  for (;;) {
    double shortfall = 0.0;
    {
      const MutexLock lock(mutex_);
      refill_locked();
      if (tokens_ >= tokens) {
        tokens_ -= tokens;
        return true;
      }
      shortfall = tokens - tokens_;
    }
    const double refill_wait = shortfall / rate_per_sec_;
    const double budget = ctx.deadline.remaining_seconds();
    // The refill rate is fixed and nothing ever returns tokens, so a wait
    // longer than the remaining budget cannot succeed — fail without
    // sleeping it out. (Concurrent acquirers can only grow the shortfall,
    // hence the re-check loop after each wait.)
    if (budget <= 0.0 || refill_wait > budget) return false;
    if (interruptible_sleep(refill_wait, ctx) != WaitResult::kCompleted) {
      return false;
    }
  }
}

double TokenBucket::available() const {
  if (!enabled()) return 0.0;
  const MutexLock lock(mutex_);
  refill_locked();
  return tokens_;
}

ThrottledFile::ThrottledFile(std::unique_ptr<FileDevice> inner,
                             DeviceModel model)
    : inner_(std::move(inner)), model_(model) {}

void ThrottledFile::charge(double seconds, double already_spent) const {
  if (seconds <= already_spent) return;
  WallTimer timer;
  const double remaining = seconds - already_spent;
  if (remaining > kSpinTailSec) {
    const OpContext& ctx = current_op_context();
    const WaitResult wait = interruptible_sleep(remaining - kSpinTailSec, ctx);
    throw_if_interrupted(wait, "modeled device charge cancelled mid-transfer",
                         "deadline expired during modeled device time charge",
                         timer.seconds());
  }
  while (timer.seconds() < remaining) {
    // Spin only the final ~1 ms: keeps the charged time proportional to
    // bytes moved without a core-burning wait for the whole transfer.
  }
}

void ThrottledFile::write_all(std::span<const std::byte> data) {
  WallTimer timer;
  inner_->write_all(data);
  if (model_.throttled()) {
    const double modeled =
        model_.latency_sec +
        static_cast<double>(data.size()) / model_.bandwidth_bytes_per_sec;
    charge(modeled, timer.seconds());
  }
}

Bytes ThrottledFile::read_at(std::size_t offset, std::size_t size) {
  WallTimer timer;
  Bytes out = inner_->read_at(offset, size);
  if (model_.throttled()) {
    const double modeled =
        model_.latency_sec +
        static_cast<double>(size) / model_.bandwidth_bytes_per_sec;
    charge(modeled, timer.seconds());
  }
  return out;
}

std::size_t ThrottledFile::size() const { return inner_->size(); }

void ThrottledFile::sync() {
  // The model's bandwidth charge already covers the transfer reaching the
  // simulated device; a real fsync would add host-filesystem noise (tens of
  // milliseconds of jitter) that has nothing to do with the modeled device,
  // so durability is intentionally not forced here.
}

std::unique_ptr<FileDevice> open_for_write(const std::string& path,
                                           const DeviceModel& model) {
  auto file =
      std::make_unique<PosixFile>(path, PosixFile::Mode::kWriteTruncate);
  if (!model.throttled()) return file;
  return std::make_unique<ThrottledFile>(std::move(file), model);
}

std::unique_ptr<FileDevice> open_for_read(const std::string& path,
                                          const DeviceModel& model) {
  auto file = std::make_unique<PosixFile>(path, PosixFile::Mode::kRead);
  if (!model.throttled()) return file;
  return std::make_unique<ThrottledFile>(std::move(file), model);
}

}  // namespace artsparse
