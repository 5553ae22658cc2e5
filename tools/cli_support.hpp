// Argument parsing and text I/O helpers for the artsparse CLI. Kept apart
// from the library: these are tool conveniences, not API.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "artsparse.hpp"

namespace artsparse::cli {

/// Parsed command line: one positional subcommand plus --key=value /
/// --key value options and bare --flags.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positionals;

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

/// Parses argv. Throws FormatError on malformed input (option without a
/// value at the end, etc.).
Args parse_args(int argc, char** argv);

/// "256,256,128" -> Shape{256, 256, 128}.
Shape parse_shape(const std::string& text);

/// "10:20,30:40" -> Box [10..20, 30..40] (inclusive bounds).
Box parse_region(const std::string& text);

/// "tsp" / "gsp" / "msp" (case-insensitive).
PatternKind parse_pattern(const std::string& text);

/// "coo" / "linear" / "gcsr" / "gcsc" / "csf" / "sortedcoo" or the paper
/// spellings ("GCSR++", ...).
OrgKind parse_org(const std::string& text);

/// "balanced" / "read" / "archive".
WorkloadWeights parse_weights(const std::string& text);

/// Byte count with an optional binary suffix: "1048576", "64K", "256MiB",
/// "1G" (case-insensitive; K/M/G are KiB/MiB/GiB). Used by --cache-bytes.
std::size_t parse_byte_size(const std::string& text);

/// Human-readable byte count: "512 B", "1.50 KiB", "3.00 MiB", "5.00 GiB".
std::string format_bytes(std::size_t bytes);

/// One-line open-fragment cache summary, e.g.
/// "cache: 12 hits / 4 misses (75.00% hit rate), 1 evictions, 4 open
/// (1.25 MiB of 256.00 MiB)".
std::string format_cache_stats(const CacheStats& stats);

/// Tab-separated export: one line per point, d coordinates then the value.
void write_tsv(const std::string& path, const CoordBuffer& coords,
               std::span<const value_t> values);

/// Inverse of write_tsv; rank is inferred from the first line.
std::pair<CoordBuffer, std::vector<value_t>> read_tsv(
    const std::string& path);

/// Reads the tensor shape recorded in a store directory's fragments.
/// Throws FormatError when the directory holds no fragments.
Shape store_shape(const std::string& directory);

}  // namespace artsparse::cli
