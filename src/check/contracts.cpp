#include "check/contracts.hpp"

#include <atomic>
#include <string>

#include "core/env.hpp"
#include "core/error.hpp"

namespace artsparse::check {

namespace {

/// -1 = no runtime override, 0 = forced off, 1 = forced on.
std::atomic<int> paranoid_override{-1};

}  // namespace

void contract_failure(const char* expression, const char* message,
                      const char* file, int line) {
  throw FormatError(std::string("invariant violated: ") + message + " (" +
                    expression + ") at " + file + ":" + std::to_string(line));
}

bool paranoid_enabled() {
  const int forced = paranoid_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  // The environment is read once; later changes go through set_paranoid().
  // Shared flag contract (core/env): "0"/"off"/"false"/empty disable, any
  // other set value enables; unset means off.
  static const bool from_env =
      env_flag("ARTSPARSE_PARANOID").value_or(false);
  return from_env;
}

void set_paranoid(std::optional<bool> enabled) {
  paranoid_override.store(enabled.has_value() ? (*enabled ? 1 : 0) : -1,
                          std::memory_order_relaxed);
}

}  // namespace artsparse::check
