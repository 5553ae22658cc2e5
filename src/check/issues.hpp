// Issue collector for the deep-invariant validators. A validator appends one
// Issue per violated rule instead of throwing on the first, so fsck can
// report everything wrong with a fragment in one pass; callers that want
// fail-fast semantics (paranoid loads) convert a non-empty collector into a
// FormatError via raise_if_failed().
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace artsparse::check {

/// One violated invariant. `rule` is a stable machine-readable identifier
/// ("gcsr.col_ind.range"); `detail` is the human-readable specifics.
struct Issue {
  std::string rule;
  std::string detail;
};

/// Append-only list of violations found by a validation pass.
class Issues {
 public:
  void add(std::string rule, std::string detail);

  bool ok() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  const std::vector<Issue>& items() const { return items_; }

  /// "rule: detail; rule: detail" — for error messages and logs.
  std::string summary() const;

  /// Throws FormatError with the summary when any issue was recorded.
  void raise_if_failed(const std::string& context) const;

 private:
  std::vector<Issue> items_;
};

}  // namespace artsparse::check
