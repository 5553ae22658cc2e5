// Store-level fsck: one sweep of a FragmentStore directory that validates
// every fragment file at a chosen Depth and reports per-fragment issues
// plus a machine-readable summary. `artsparse check` runs it read-only;
// `artsparse repair` and FragmentStore's open/rescan run it as a repair.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "check/issues.hpp"
#include "check/validate.hpp"
#include "storage/fragment.hpp"

namespace artsparse::check {

/// Validation result for one fragment file.
struct FragmentReport {
  std::string path;  ///< file path, as walked
  Issues issues;
  /// The header the check parsed (default when it could not be parsed).
  FragmentInfo info;
  std::size_t file_bytes = 0;  ///< bytes read from the file

  bool ok() const { return issues.ok(); }
};

/// What one sweep of a store directory found and, under repair, fixed.
/// Every list is sorted by name.
struct StoreReport {
  std::string directory;
  Depth depth = Depth::kStructure;
  /// Every *.asf validated, failing ones included.
  std::vector<FragmentReport> fragments;
  /// Orphaned .tmp stage files removed (repair only).
  std::vector<std::string> swept_tmp;
  /// Failing fragments moved to <name>.quarantine, or to
  /// <name>.quarantine.N when that name is taken (repair only). A fragment
  /// whose move failed is not listed; its report carries a
  /// fragment.quarantine issue instead.
  std::vector<std::string> quarantined;
  /// Non-fragment files left in place (.asf.quarantine casualties,
  /// operator droppings, and under a read-only check the .tmp stage
  /// files). Logged for the operator but not counted as corruption: they
  /// are never loaded.
  std::vector<std::string> strays;

  std::size_t checked() const { return fragments.size(); }
  std::size_t failed() const;
  bool ok() const { return failed() == 0; }
  /// Nothing to repair: no orphan swept, no fragment quarantined.
  bool clean() const { return swept_tmp.empty() && quarantined.empty(); }

  /// One-object JSON summary ({"directory": ..., "fragments": [...]}).
  std::string to_json() const;
};

/// Recovery sweep of a store directory without opening it as a
/// FragmentStore (no tensor shape required): removes *.tmp orphans and
/// quarantines fragments that fail validation at `depth`. Safe to run on a
/// live directory between writes; never deletes fragment data (corrupt
/// files are renamed, not removed). Throws IoError when `directory` is not
/// a readable directory.
StoreReport repair_store(const std::filesystem::path& directory,
                         Depth depth = Depth::kHeader);

/// Validates every *.asf file under `directory` (sorted by name) at
/// `depth`, changing nothing. Unreadable files are reported as issues, not
/// thrown. Throws IoError only when `directory` itself is not a readable
/// directory.
StoreReport check_store(const std::filesystem::path& directory, Depth depth);

/// Validates a single fragment file.
FragmentReport check_fragment_file(const std::filesystem::path& path,
                                   Depth depth);

}  // namespace artsparse::check
