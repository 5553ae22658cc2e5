// ASL007 fixture: detail::require messages that build a std::string, which
// allocates on every passing check. Conditions doing arithmetic, literals
// holding `+` or commas, digit separators and plain variables are not
// flagged.
#include <string>

#include "core/error.hpp"

void fixture_require(int a, int b, const std::string& name,
                     const std::string& message) {
  artsparse::detail::require(a > 0, "bad name: " + name);  // flagged
  artsparse::detail::require(a > 0, std::to_string(b));  // flagged
  artsparse::detail::require(a + b > 0,  // flagged: the message, not a + b
                             std::string("built ") + name);
  artsparse::detail::require(a > 0, std::string("built"));  // flagged
  artsparse::detail::require(a + b < 9, "a literal with + and, a comma");
  artsparse::detail::require(std::max(a, b + 1) > 0, "a plain literal");
  artsparse::detail::require(a > 0, message);
}

void fixture_require_separator(int n, const std::string& name) {
  artsparse::detail::require(n < 100'000, "digit separators are not quotes");
  artsparse::detail::require(n > 0, "name: " + name);  // flagged
}
