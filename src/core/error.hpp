// Exception hierarchy. All library failures surface as artsparse::Error (or a
// subclass) carrying a contextual message; std:: exceptions never escape the
// public API except std::bad_alloc.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace artsparse {

/// Base class for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Arithmetic overflow while linearizing coordinates or sizing buffers.
/// The paper flags linear-address overflow as the main risk of the LINEAR
/// organization (Section II-B); we detect it instead of wrapping silently.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// Malformed input: shape/coordinate mismatches, bad serialized payloads,
/// unknown organization names, invariant violations on deserialize.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// How the retry loop should treat a failing errno.
enum class IoErrnoClass {
  /// Clears on its own (EINTR, EAGAIN, EBUSY, ETIMEDOUT): retry freely
  /// within the policy's attempt budget.
  kTransient,
  /// Capacity exhaustion (ENOSPC, EDQUOT): *sometimes* transient — a quota
  /// flush or Lustre grant refresh in progress — but a genuinely full disk
  /// never clears, so retries are bounded separately
  /// (RetryPolicy::max_capacity_retries) and the store health machinery
  /// treats persistence as a degradation signal.
  kCapacity,
  /// Never worth retrying (EIO, EACCES, ENOENT, ...).
  kPermanent,
};
IoErrnoClass io_errno_class(int error_number);

/// True for errno classes worth retrying at all (transient or capacity);
/// EIO and friends are permanent. Capacity errnos are additionally subject
/// to the bounded-retry budget — see IoErrnoClass.
bool io_errno_retryable(int error_number);

/// Filesystem / IO failures. The raw errno travels as a field (0 when the
/// failure has no errno, e.g. a short read), so retry classification and
/// tests never parse the message text.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what, int error_number = 0)
      : Error(what), errno_value_(error_number) {}

  /// Builds an IoError from the current errno.
  static IoError from_errno(const std::string& op, const std::string& path);

  /// Builds an IoError from an explicit errno (fault injection, wrappers).
  static IoError with_errno(const std::string& op, const std::string& path,
                            int error_number);

  int errno_value() const { return errno_value_; }
  bool retryable() const { return io_errno_retryable(errno_value_); }

 private:
  int errno_value_ = 0;
};

/// A request bounced by admission control before any work ran: the tenant
/// was over one of its quotas. Carries which tenant and which quota axis
/// ("ops", "bytes", or "concurrency") so callers and tests never parse the
/// message text. The correct client response is back off and retry; the
/// store's state is untouched.
class OverloadedError : public Error {
 public:
  OverloadedError(const std::string& what, std::string tenant,
                  std::string quota)
      : Error(what), tenant_(std::move(tenant)), quota_(std::move(quota)) {}

  const std::string& tenant() const { return tenant_; }
  const std::string& quota() const { return quota_; }

 private:
  std::string tenant_;
  std::string quota_;
};

/// An operation ran out of its time budget (see core/deadline.hpp) before
/// completing: a retry loop whose next backoff would overrun the deadline,
/// an admission or throttle wait cut short, an injected delay interrupted.
/// Carries how many attempts ran and how long the operation had been going
/// so callers and tests never parse the message text. The store's on-disk
/// state is consistent: commit paths clean their staging files on the way
/// out, exactly as for any other mid-commit error.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what,
                                 std::size_t attempts = 1,
                                 double elapsed_seconds = 0.0)
      : Error(what), attempts_(attempts), elapsed_seconds_(elapsed_seconds) {}

  /// Tries made before the budget ran out (1 = never got past the first).
  std::size_t attempts() const { return attempts_; }
  /// Wall time the operation had consumed when it gave up.
  double elapsed_seconds() const { return elapsed_seconds_; }

 private:
  std::size_t attempts_ = 1;
  double elapsed_seconds_ = 0.0;
};

/// The operation's CancelToken fired: the client (or its session) asked for
/// the work to stop. Like DeadlineExceededError, the store's state is
/// consistent; unlike it, retrying is pointless until whoever cancelled
/// says otherwise.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// The store is in degraded read-only mode (persistent ENOSPC/EIO on the
/// commit path) and fails writes fast instead of burning their retry
/// budgets against a disk that cannot accept them. Reads are unaffected.
/// Carries the store directory and the errno that tripped degradation.
/// The store probes the device and re-admits writes automatically once it
/// recovers — the correct client response is to retry later.
class StoreDegradedError : public Error {
 public:
  StoreDegradedError(const std::string& what, std::string directory,
                     int last_errno)
      : Error(what),
        directory_(std::move(directory)),
        last_errno_(last_errno) {}

  const std::string& directory() const { return directory_; }
  /// The errno whose persistence degraded the store (ENOSPC, EIO, ...).
  int last_errno() const { return last_errno_; }

 private:
  std::string directory_;
  int last_errno_ = 0;
};

namespace detail {
/// Throws FormatError carrying a copy of `message`. Out of line so the
/// string construction stays off every caller's hot path.
[[noreturn]] void throw_format_error(std::string_view message);

/// Throws FormatError with `message` unless `condition` holds. A passing
/// check is one inline branch: the message is copied only on failure, so
/// hot paths pass string literals and allocate nothing.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    throw_format_error(message);
  }
}
}  // namespace detail

}  // namespace artsparse
