#include "core/deadline.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace artsparse {

namespace {

/// Cancellation poll granularity inside interruptible_sleep. Bounds the
/// latency between CancelToken::cancel() and a sleeping waiter noticing.
constexpr double kCancelPollSec = 2e-3;

thread_local OpContext g_ambient_context;

}  // namespace

Deadline Deadline::after_seconds(double seconds) {
  Deadline d;
  d.bounded_ = true;
  d.at_ = Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(std::max(seconds, 0.0)));
  return d;
}

Deadline Deadline::after_ms(std::uint64_t ms) {
  return after_seconds(static_cast<double>(ms) / 1e3);
}

Deadline Deadline::at(Clock::time_point at_time) {
  Deadline d;
  d.bounded_ = true;
  d.at_ = at_time;
  return d;
}

Deadline Deadline::earliest(const Deadline& a, const Deadline& b) {
  if (!a.bounded_) return b;
  if (!b.bounded_) return a;
  return a.at_ <= b.at_ ? a : b;
}

bool Deadline::expired() const {
  return bounded_ && Clock::now() >= at_;
}

double Deadline::remaining_seconds() const {
  if (!bounded_) return std::numeric_limits<double>::infinity();
  const double left = std::chrono::duration<double>(at_ - Clock::now()).count();
  return std::max(left, 0.0);
}

CancelToken CancelToken::root() {
  return CancelToken(std::make_shared<const State>());
}

CancelToken CancelToken::child() const {
  auto state = std::make_shared<State>();
  state->parent = state_;
  return CancelToken(std::shared_ptr<const State>(std::move(state)));
}

void CancelToken::cancel() const {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

bool CancelToken::cancelled() const {
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

const OpContext& current_op_context() { return g_ambient_context; }

ScopedOpContext::ScopedOpContext(const OpContext& ctx)
    : previous_(g_ambient_context) {
  OpContext composed;
  composed.deadline = Deadline::earliest(previous_.deadline, ctx.deadline);
  composed.cancel = ctx.cancel.cancellable() ? ctx.cancel : previous_.cancel;
  g_ambient_context = composed;
}

ScopedOpContext::~ScopedOpContext() { g_ambient_context = previous_; }

WaitResult interruptible_sleep(double seconds, const OpContext& ctx) {
  if (ctx.cancelled()) return WaitResult::kCancelled;
  if (ctx.expired()) return WaitResult::kDeadlineExpired;
  if (seconds <= 0.0) return WaitResult::kCompleted;

  if (!ctx.bounded()) {
    // Nothing can interrupt the wait: one plain sleep, no poll slicing.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    return WaitResult::kCompleted;
  }

  const auto wake =
      Deadline::Clock::now() +
      std::chrono::duration_cast<Deadline::Clock::duration>(
          std::chrono::duration<double>(seconds));
  for (;;) {
    const double left =
        std::chrono::duration<double>(wake - Deadline::Clock::now()).count();
    if (left <= 0.0) return WaitResult::kCompleted;
    const double budget = ctx.deadline.remaining_seconds();
    if (budget <= 0.0) return WaitResult::kDeadlineExpired;
    const double slice = std::min({left, budget, kCancelPollSec});
    std::this_thread::sleep_for(std::chrono::duration<double>(slice));
    if (ctx.cancelled()) return WaitResult::kCancelled;
  }
}

WaitResult interruptible_sleep(double seconds) {
  return interruptible_sleep(seconds, current_op_context());
}

void throw_if_interrupted(WaitResult why, std::string_view cancelled,
                          std::string_view expired, double elapsed_seconds) {
  if (why == WaitResult::kCancelled) {
    ARTSPARSE_COUNT("artsparse_cancelled_total", 1);
    throw CancelledError(std::string(cancelled));
  }
  if (why == WaitResult::kDeadlineExpired) {
    ARTSPARSE_COUNT("artsparse_deadline_exceeded_total", 1);
    throw DeadlineExceededError(std::string(expired), 1, elapsed_seconds);
  }
}

void check_op_budget(const OpContext& ctx, std::string_view cancelled,
                     std::string_view expired) {
  // A zero-length wait reports the budget's state without sleeping.
  throw_if_interrupted(interruptible_sleep(0.0, ctx), cancelled, expired);
}

}  // namespace artsparse
