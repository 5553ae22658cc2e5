// Contract layer of the artsparse::check subsystem.
//
// Two tiers, mirroring the cost split the paper's read path forces on a
// production store:
//
//   ARTSPARSE_ASSERT(cond, msg)   always-on, O(1) checks guarding raw
//                                 indexing in hot paths. Compiled into every
//                                 build; a failure throws FormatError so the
//                                 untrusted-deserialization contract ("bad
//                                 bytes surface as FormatError, never UB")
//                                 holds even for invariants a hostile
//                                 fragment managed to smuggle past load().
//
//   paranoid mode                 deep O(n) invariant validation (the
//                                 per-format check_invariants() pass) run at
//                                 every deserialization. Off by default;
//                                 enabled by the ARTSPARSE_PARANOID
//                                 environment variable or set_paranoid()
//                                 at runtime.
#pragma once

#include <optional>

namespace artsparse::check {

/// Throws FormatError carrying the failed expression and source location.
[[noreturn]] void contract_failure(const char* expression, const char* message,
                                   const char* file, int line);

/// True when deep (O(n)) invariant checks should run on every load.
/// Precedence: set_paranoid() override, then the ARTSPARSE_PARANOID
/// environment variable ("0"/"off"/"false" disable, anything else enables);
/// off when neither is set.
bool paranoid_enabled();

/// Runtime override (CLI flags, tests). std::nullopt restores the
/// environment's setting.
void set_paranoid(std::optional<bool> enabled);

/// RAII paranoid override for tests.
class ParanoidGuard {
 public:
  explicit ParanoidGuard(bool enabled) { set_paranoid(enabled); }
  ~ParanoidGuard() { set_paranoid(std::nullopt); }
  ParanoidGuard(const ParanoidGuard&) = delete;
  ParanoidGuard& operator=(const ParanoidGuard&) = delete;
};

}  // namespace artsparse::check

/// Always-on cheap invariant check; see file comment.
#define ARTSPARSE_ASSERT(cond, msg)                                       \
  (static_cast<bool>(cond)                                                \
       ? static_cast<void>(0)                                             \
       : ::artsparse::check::contract_failure(#cond, msg, __FILE__, __LINE__))
