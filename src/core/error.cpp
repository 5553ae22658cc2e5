#include "core/error.hpp"

#include <cerrno>
#include <system_error>

namespace artsparse {

IoErrnoClass io_errno_class(int error_number) {
  switch (error_number) {
    case EINTR:
    case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case EBUSY:
    case ETIMEDOUT:
      return IoErrnoClass::kTransient;
    // Capacity errnos are only *sometimes* transient (quota flush / Lustre
    // grant refresh in progress); a genuinely full disk never clears, so
    // the retry loop bounds these separately instead of burning the whole
    // backoff schedule against them.
    case ENOSPC:
#if defined(EDQUOT)
    case EDQUOT:
#endif
      return IoErrnoClass::kCapacity;
    default:
      return IoErrnoClass::kPermanent;
  }
}

bool io_errno_retryable(int error_number) {
  return io_errno_class(error_number) != IoErrnoClass::kPermanent;
}

IoError IoError::from_errno(const std::string& op, const std::string& path) {
  return with_errno(op, path, errno);
}

IoError IoError::with_errno(const std::string& op, const std::string& path,
                            int error_number) {
  // std::generic_category().message() instead of std::strerror: same
  // text, but thread-safe (strerror may reuse one static buffer, which
  // concurrent fault-injected commits would race on).
  return IoError(op + " '" + path + "': " +
                     std::generic_category().message(error_number),
                 error_number);
}

namespace detail {
void throw_format_error(std::string_view message) {
  throw FormatError(std::string(message));
}
}  // namespace detail

}  // namespace artsparse
