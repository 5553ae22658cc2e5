#include "storage/fault.hpp"

#include <cerrno>
#include <cstdlib>

#include "core/deadline.hpp"
#include "core/env.hpp"
#include "obs/metrics.hpp"

namespace artsparse {

namespace {

struct OpName {
  FaultOp op;
  const char* name;
};

constexpr OpName kOpNames[] = {
    {FaultOp::kOpenWrite, "open"},   {FaultOp::kOpenRead, "open_read"},
    {FaultOp::kRead, "read"},        {FaultOp::kWrite, "write"},
    {FaultOp::kFsync, "fsync"},      {FaultOp::kRename, "rename"},
    {FaultOp::kDirFsync, "dirsync"},
};

struct ErrnoName {
  const char* name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"EIO", EIO},         {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
    {"ENOSPC", ENOSPC},   {"EACCES", EACCES}, {"ENOENT", ENOENT},
    {"EBUSY", EBUSY},     {"EDQUOT", EDQUOT}, {"ETIMEDOUT", ETIMEDOUT},
    {"EROFS", EROFS},     {"EMFILE", EMFILE}, {"ENFILE", ENFILE},
};

struct ParsedAction {
  int error_number = 0;        ///< 0 = crash when delay_ms is 0
  std::uint64_t delay_ms = 0;  ///< > 0 = stall action
};

/// Parses the action field: "crash" -> {0, 0}, "delay_ms=N" -> {0, N},
/// errno name or decimal -> {value, 0}.
ParsedAction parse_action(const std::string& action) {
  if (action == "crash") return ParsedAction{};
  constexpr const char kDelayPrefix[] = "delay_ms=";
  constexpr std::size_t kDelayPrefixLen = sizeof(kDelayPrefix) - 1;
  if (action.compare(0, kDelayPrefixLen, kDelayPrefix) == 0) {
    const std::string ms_text = action.substr(kDelayPrefixLen);
    char* end = nullptr;
    const unsigned long long ms = std::strtoull(ms_text.c_str(), &end, 10);
    // Leading-digit check: strtoull silently wraps "-5" to a huge value.
    // Spec parsing runs once per install. artsparse-lint: allow(ASL007)
    detail::require(!ms_text.empty() && ms_text[0] >= '0' &&
                        ms_text[0] <= '9' && end != ms_text.c_str() &&
                        *end == '\0' && ms > 0,
                    "fault spec: delay_ms wants a positive integer, got '" +
                        action + "'");
    return ParsedAction{0, static_cast<std::uint64_t>(ms)};
  }
  for (const ErrnoName& entry : kErrnoNames) {
    if (action == entry.name) return ParsedAction{entry.value, 0};
  }
  char* end = nullptr;
  const long value = std::strtol(action.c_str(), &end, 10);
  // artsparse-lint: allow(ASL007) -- spec parsing, once per install
  detail::require(end != action.c_str() && *end == '\0' && value > 0,
                  "fault spec: unknown action '" + action + "'");
  return ParsedAction{static_cast<int>(value), 0};
}

}  // namespace

const char* to_string(FaultOp op) {
  for (const OpName& entry : kOpNames) {
    if (entry.op == op) return entry.name;
  }
  return "?";
}

FaultOp fault_op_from_string(const std::string& name) {
  for (const OpName& entry : kOpNames) {
    if (name == entry.name) return entry.op;
  }
  throw FormatError("fault spec: unknown op '" + name + "'");
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& spec) {
  const MutexLock lock(mutex_);
  directives_.clear();
  counters_.fill(0);
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string directive = spec.substr(start, end - start);
    start = end + 1;
    if (directive.empty()) continue;
    const std::size_t first = directive.find(':');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : directive.find(':', first + 1);
    // artsparse-lint: allow(ASL007) -- spec parsing, once per install
    detail::require(second != std::string::npos,
                    "fault spec: expected op:nth:action, got '" + directive +
                        "'");
    const FaultOp op = fault_op_from_string(directive.substr(0, first));
    char* end_ptr = nullptr;
    const std::string nth_text =
        directive.substr(first + 1, second - first - 1);
    const unsigned long long nth =
        std::strtoull(nth_text.c_str(), &end_ptr, 10);
    // artsparse-lint: allow(ASL007) -- spec parsing, once per install
    detail::require(end_ptr != nth_text.c_str() && *end_ptr == '\0' &&
                        nth > 0,
                    "fault spec: nth must be a positive integer, got '" +
                        nth_text + "'");
    const ParsedAction action = parse_action(directive.substr(second + 1));
    directives_.push_back(Directive{op, static_cast<std::size_t>(nth),
                                    action.error_number, action.delay_ms,
                                    false});
  }
  enabled_.store(!directives_.empty(), std::memory_order_relaxed);
}

void FaultInjector::configure_from_env() {
  if (const auto spec = env_string("ARTSPARSE_FAULT_SPEC")) {
    configure(*spec);
  }
}

void FaultInjector::arm(FaultOp op, std::size_t nth, int error_number) {
  detail::require(nth > 0 && error_number > 0,
                  "fault arm: nth and errno must be positive");
  const MutexLock lock(mutex_);
  directives_.push_back(Directive{op, nth, error_number, 0, false});
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::arm_crash(FaultOp op, std::size_t nth) {
  detail::require(nth > 0, "fault arm: nth must be positive");
  const MutexLock lock(mutex_);
  directives_.push_back(Directive{op, nth, 0, 0, false});
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::arm_delay(FaultOp op, std::size_t nth,
                              std::uint64_t delay_ms) {
  detail::require(nth > 0 && delay_ms > 0,
                  "fault arm: nth and delay_ms must be positive");
  const MutexLock lock(mutex_);
  directives_.push_back(Directive{op, nth, 0, delay_ms, false});
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::reset() {
  const MutexLock lock(mutex_);
  directives_.clear();
  counters_.fill(0);
  enabled_.store(false, std::memory_order_relaxed);
}

void FaultInjector::on_syscall(FaultOp op, const std::string& path) {
  int error_number = -1;
  std::uint64_t delay_ms = 0;
  std::size_t call = 0;
  {
    const MutexLock lock(mutex_);
    call = ++counters_[static_cast<std::size_t>(op)];
    for (Directive& directive : directives_) {
      if (!directive.fired && directive.op == op && directive.nth == call) {
        directive.fired = true;
        error_number = directive.error_number;
        delay_ms = directive.delay_ms;
        break;
      }
    }
  }
  if (error_number < 0) return;
  ARTSPARSE_COUNT_L("artsparse_fault_injected_total", "op", to_string(op),
                    1);
  const std::string site = std::string(to_string(op)) + " call #" +
                           std::to_string(call) + " on '" + path + "'";
  if (delay_ms > 0) {
    // Stall, then let the call proceed: models a slow device rather than a
    // broken one. The sleep observes the ambient deadline/cancel budget so
    // a budgeted operation fails typed-and-fast instead of waiting it out.
    throw_if_interrupted(
        interruptible_sleep(static_cast<double>(delay_ms) / 1e3),
        "cancelled during injected delay at " + site,
        "deadline expired during injected " + std::to_string(delay_ms) +
            " ms delay at " + site);
    return;
  }
  if (error_number == 0) {
    throw CrashFault("injected crash at " + site);
  }
  throw IoError::with_errno("injected fault at " + std::string(to_string(op)),
                            path, error_number);
}

std::size_t FaultInjector::calls(FaultOp op) const {
  const MutexLock lock(mutex_);
  return counters_[static_cast<std::size_t>(op)];
}

}  // namespace artsparse
