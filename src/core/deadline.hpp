// Time budgets and cooperative cancellation for long-running operations.
//
// A production multi-tenant store must bound *how long* an operation runs,
// not just whether it is admitted: retry backoff, token-bucket waits,
// modeled-device charges, and multi-fragment scans are all places a request
// can otherwise sleep unboundedly while the client has long since given up.
// This header provides the three pieces every blocking point shares:
//
//   - Deadline: an absolute point on the monotonic clock. Composable —
//     Deadline::earliest(parent, child) never extends a parent's budget.
//   - CancelToken: hierarchical cancellation. A child token observes its
//     parent's cancel; cancelling a child never affects the parent, so a
//     Service can cancel every session while one session cancels only its
//     own in-flight ops.
//   - OpContext: the {deadline, cancel} pair ambient to the current thread,
//     installed by ScopedOpContext at operation entry (Session ops) and
//     re-installed inside parallel_for workers, so deep storage code reads
//     the budget without threading a parameter through every signature.
//
// interruptible_sleep() is the ONE sanctioned blocking sleep in the tree
// (lint rule ASL006): it caps the wait at the ambient deadline and polls
// the cancel token, so no caller can accidentally reintroduce an
// uninterruptible wait.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string_view>

namespace artsparse {

/// An absolute budget on the monotonic clock. Default-constructed deadlines
/// are unbounded (never expire); bounded ones expire and stay expired.
/// Copyable, immutable, trivially thread-safe.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unbounded: never expires, remaining_seconds() is +infinity.
  Deadline() = default;

  /// Unbounded, spelled out.
  static Deadline never() { return Deadline(); }

  /// Expires `seconds` from now (clamped at >= 0, i.e. already expired).
  static Deadline after_seconds(double seconds);

  /// Expires `ms` milliseconds from now. 0 means "already expired" — use
  /// never() (or a default Deadline) for "no budget".
  static Deadline after_ms(std::uint64_t ms);

  /// Expires at `at` on the monotonic clock.
  static Deadline at(Clock::time_point at_time);

  /// The earlier of the two; unbounded is the identity, so composing a
  /// child budget with an unbounded parent keeps the child's. A nested
  /// operation can only shrink the budget, never extend it.
  static Deadline earliest(const Deadline& a, const Deadline& b);

  bool bounded() const { return bounded_; }
  bool expired() const;

  /// Seconds left before expiry: +infinity when unbounded, clamped at 0
  /// once expired (never negative).
  double remaining_seconds() const;

  /// Meaningful only when bounded().
  Clock::time_point time_point() const { return at_; }

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

/// Hierarchical cooperative cancellation flag. Default-constructed tokens
/// are inert (never cancelled, cancel() is a no-op, zero allocation);
/// root() makes a cancellable token and child() derives one that observes
/// every ancestor's cancel but whose own cancel() leaves ancestors (and
/// siblings) untouched. Copies share state. All operations are lock-free
/// atomics; safe to use from any thread.
class CancelToken {
 public:
  CancelToken() = default;

  /// A fresh cancellable root.
  static CancelToken root();

  /// A token cancelled when either this token (or any ancestor) or the
  /// child itself is cancelled. Deriving from an inert token yields a
  /// plain root (there is no ancestor to observe).
  CancelToken child() const;

  /// Cancels this token and every descendant. No-op on inert tokens;
  /// idempotent.
  void cancel() const;

  /// True once this token or any ancestor has been cancelled.
  bool cancelled() const;

  /// False only for inert (default-constructed) tokens.
  bool cancellable() const { return state_ != nullptr; }

 private:
  struct State {
    /// mutable: tokens share the state as const (the tree topology is
    /// immutable) while cancel() still flips the flag.
    mutable std::atomic<bool> cancelled{false};
    std::shared_ptr<const State> parent;  ///< immutable after construction
  };

  explicit CancelToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// The budget pair every blocking point consults. Value type: copying at
/// operation entry (and into parallel_for worker lambdas) is the intended
/// propagation mechanism.
struct OpContext {
  Deadline deadline;
  CancelToken cancel;

  bool cancelled() const { return cancel.cancelled(); }
  bool expired() const { return deadline.expired(); }
  /// True when the operation should stop: cancelled or out of budget.
  bool interrupted() const { return cancelled() || expired(); }
  /// True when waits must be bounded/observed at all (saves the slicing
  /// machinery for the common unbudgeted case).
  bool bounded() const { return deadline.bounded() || cancel.cancellable(); }
};

/// The ambient context of the calling thread: whatever the innermost live
/// ScopedOpContext installed, or an unbounded default when none is active.
const OpContext& current_op_context();

/// RAII installer for the ambient OpContext. Composes with any enclosing
/// scope — the effective deadline is the earlier of the two, and an inert
/// cancel token inherits the enclosing one — so a nested operation can
/// never escape its caller's budget. Destruction restores the previous
/// context. Stack-only; not movable.
class ScopedOpContext {
 public:
  explicit ScopedOpContext(const OpContext& ctx);
  ~ScopedOpContext();

  ScopedOpContext(const ScopedOpContext&) = delete;
  ScopedOpContext& operator=(const ScopedOpContext&) = delete;

 private:
  OpContext previous_;
};

/// Why a bounded wait returned.
enum class WaitResult {
  kCompleted,        ///< slept the full requested duration
  kDeadlineExpired,  ///< the context's deadline cut the wait short
  kCancelled,        ///< the context's cancel token fired during the wait
};

/// Sleeps up to `seconds`, capped at `ctx`'s remaining deadline budget and
/// polling its cancel token every ~2 ms. Returns why the wait ended; an
/// already-interrupted context returns immediately without sleeping. The
/// single sanctioned blocking sleep in the tree (ASL006): all other code
/// must wait through here so every wait is deadline-aware.
WaitResult interruptible_sleep(double seconds, const OpContext& ctx);

/// interruptible_sleep against the ambient thread context.
WaitResult interruptible_sleep(double seconds);

/// Counts and throws the typed error for an interrupted wait:
/// CancelledError(`cancelled`) or DeadlineExceededError(`expired`, 1,
/// `elapsed_seconds`). Returns on kCompleted.
void throw_if_interrupted(WaitResult why, std::string_view cancelled,
                          std::string_view expired,
                          double elapsed_seconds = 0.0);

/// throw_if_interrupted at a checkpoint between units of work: throws if
/// `ctx` is cancelled or past its deadline; cancel wins, as in a wait.
void check_op_budget(const OpContext& ctx, std::string_view cancelled,
                     std::string_view expired);

}  // namespace artsparse
