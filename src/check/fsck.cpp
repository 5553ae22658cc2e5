#include "check/fsck.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "storage/file_io.hpp"

namespace artsparse::check {

namespace {

/// Appends `text` to `out` as a quoted JSON string.
void append_quoted(std::string& out, const std::string& text) {
  out += '"';
  out += obs::json_escape(text);
  out += '"';
}

/// The one sweep behind check_store, repair_store and FragmentStore's
/// open/rescan: lists the directory, validates every *.asf at `depth` and,
/// when `repair` is set, removes *.tmp orphans and moves failing
/// fragments aside with quarantine_file().
StoreReport sweep(const std::filesystem::path& directory, Depth depth,
                  bool repair) {
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec)) {
    throw IoError("not a store directory: " + directory.string());
  }
  StoreReport report;
  report.directory = directory.string();
  report.depth = depth;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::filesystem::path& path = entry.path();
    if (path.extension() == ".asf") {
      paths.push_back(path);
    } else if (repair && path.extension() == kTmpSuffix) {
      // Orphaned stage file from a crashed commit: never renamed, so never
      // part of the committed fragment set.
      std::filesystem::remove(path, ec);
      ARTSPARSE_COUNT("artsparse_store_swept_tmp_total", 1);
      report.swept_tmp.push_back(path.string());
    } else {
      report.strays.push_back(path.string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::sort(report.swept_tmp.begin(), report.swept_tmp.end());
  std::sort(report.strays.begin(), report.strays.end());
  report.fragments.reserve(paths.size());
  for (const auto& path : paths) {
    FragmentReport& fragment =
        report.fragments.emplace_back(check_fragment_file(path, depth));
    if (!repair || fragment.ok()) continue;
    try {
      quarantine_file(path.string());
    } catch (const IoError& e) {
      // Left in place and still failing: every open skips it, and the
      // next repair tries again.
      fragment.issues.add("fragment.quarantine", e.what());
      continue;
    }
    ARTSPARSE_COUNT("artsparse_store_quarantined_total", 1);
    report.quarantined.push_back(path.string());
  }
  return report;
}

}  // namespace

std::size_t StoreReport::failed() const {
  std::size_t count = 0;
  for (const FragmentReport& fragment : fragments) {
    if (!fragment.ok()) ++count;
  }
  return count;
}

std::string StoreReport::to_json() const {
  std::string out = "{\"directory\": ";
  append_quoted(out, directory);
  out += ", \"depth\": \"" + check::to_string(depth) +
         "\", \"checked\": " + std::to_string(checked()) +
         ", \"failed\": " + std::to_string(failed()) + ", \"strays\": [";
  bool first_stray = true;
  for (const std::string& stray : strays) {
    if (!first_stray) out += ", ";
    first_stray = false;
    append_quoted(out, stray);
  }
  out += "], \"fragments\": [";
  bool first_fragment = true;
  for (const FragmentReport& fragment : fragments) {
    if (!first_fragment) out += ", ";
    first_fragment = false;
    out += "{\"path\": ";
    append_quoted(out, fragment.path);
    out += ", \"issues\": [";
    bool first_issue = true;
    for (const Issue& issue : fragment.issues.items()) {
      if (!first_issue) out += ", ";
      first_issue = false;
      out += "{\"rule\": ";
      append_quoted(out, issue.rule);
      out += ", \"detail\": ";
      append_quoted(out, issue.detail);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

FragmentReport check_fragment_file(const std::filesystem::path& path,
                                   Depth depth) {
  FragmentReport report;
  report.path = path.string();
  Bytes data;
  try {
    data = read_file(path.string());
  } catch (const Error& e) {
    report.issues.add("fragment.io", e.what());
    return report;
  }
  report.file_bytes = data.size();
  report.info = check_fragment_bytes(data, depth, report.issues);
  return report;
}

StoreReport check_store(const std::filesystem::path& directory, Depth depth) {
  return sweep(directory, depth, /*repair=*/false);
}

StoreReport repair_store(const std::filesystem::path& directory,
                         Depth depth) {
  return sweep(directory, depth, /*repair=*/true);
}

}  // namespace artsparse::check
