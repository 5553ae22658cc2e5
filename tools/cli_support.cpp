#include "cli_support.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace artsparse::cli {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) {
    parts.push_back(part);
  }
  return parts;
}

index_t parse_index(const std::string& text) {
  std::size_t consumed = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    throw FormatError("not a number: '" + text + "'");
  }
  detail::require(consumed == text.size(), "not a number: '" + text + "'");
  return value;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      token = token.substr(2);
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        args.options[token.substr(0, eq)] = token.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.options[token] = argv[++i];
      } else {
        args.options[token] = "";  // bare flag
      }
    } else {
      args.positionals.push_back(token);
    }
  }
  return args;
}

Shape parse_shape(const std::string& text) {
  std::vector<index_t> extents;
  for (const std::string& part : split(text, ',')) {
    extents.push_back(parse_index(part));
  }
  detail::require(!extents.empty(), "empty shape specification");
  return Shape(std::move(extents));
}

Box parse_region(const std::string& text) {
  std::vector<index_t> lo;
  std::vector<index_t> hi;
  for (const std::string& part : split(text, ',')) {
    const auto bounds = split(part, ':');
    detail::require(bounds.size() == 2,
                    "region dimensions must be lo:hi, got '" + part + "'");
    lo.push_back(parse_index(bounds[0]));
    hi.push_back(parse_index(bounds[1]));
  }
  detail::require(!lo.empty(), "empty region specification");
  return Box(std::move(lo), std::move(hi));
}

PatternKind parse_pattern(const std::string& text) {
  const std::string name = lower(text);
  if (name == "tsp") return PatternKind::kTsp;
  if (name == "gsp" || name == "cgp") return PatternKind::kGsp;
  if (name == "msp") return PatternKind::kMsp;
  throw FormatError("unknown pattern: " + text + " (tsp|gsp|msp)");
}

OrgKind parse_org(const std::string& text) {
  const std::string name = lower(text);
  if (name == "coo") return OrgKind::kCoo;
  if (name == "linear") return OrgKind::kLinear;
  if (name == "gcsr" || name == "gcsr++") return OrgKind::kGcsr;
  if (name == "gcsc" || name == "gcsc++") return OrgKind::kGcsc;
  if (name == "csf") return OrgKind::kCsf;
  if (name == "sortedcoo" || name == "sorted-coo") {
    return OrgKind::kSortedCoo;
  }
  if (name == "bcsr") return OrgKind::kBcsr;
  throw FormatError("unknown organization: " + text +
                    " (coo|linear|gcsr|gcsc|csf|sortedcoo|bcsr)");
}

std::size_t parse_byte_size(const std::string& text) {
  detail::require(!text.empty(), "empty byte size");
  std::size_t pos = 0;
  unsigned long long amount = 0;
  try {
    amount = std::stoull(text, &pos);
  } catch (const std::exception&) {
    throw FormatError("invalid byte size: " + text);
  }
  std::string suffix = lower(text.substr(pos));
  if (!suffix.empty() && suffix.back() == 'b') suffix.pop_back();
  if (!suffix.empty() && suffix.back() == 'i') suffix.pop_back();
  std::size_t shift = 0;
  if (suffix == "k") {
    shift = 10;
  } else if (suffix == "m") {
    shift = 20;
  } else if (suffix == "g") {
    shift = 30;
  } else if (!suffix.empty()) {
    throw FormatError("invalid byte size suffix: " + text +
                      " (use K, M, G, KiB, MiB, GiB)");
  }
  return static_cast<std::size_t>(amount) << shift;
}

WorkloadWeights parse_weights(const std::string& text) {
  const std::string name = lower(text);
  if (name == "balanced" || name.empty()) {
    return WorkloadWeights::balanced();
  }
  if (name == "read" || name == "read-mostly") {
    return WorkloadWeights::read_mostly();
  }
  if (name == "archive" || name == "archival") {
    return WorkloadWeights::archival();
  }
  throw FormatError("unknown weights: " + text + " (balanced|read|archive)");
}

std::string format_bytes(std::size_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", b / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

std::string format_cache_stats(const CacheStats& stats) {
  const std::size_t lookups = stats.hits + stats.misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.hits) /
                         static_cast<double>(lookups);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cache: %zu hits / %zu misses (%.2f%% hit rate), "
                "%zu evictions, %zu open (%s of %s)",
                stats.hits, stats.misses, hit_rate * 100.0, stats.evictions,
                stats.open_count, format_bytes(stats.open_bytes).c_str(),
                format_bytes(stats.budget_bytes).c_str());
  return buf;
}

void write_tsv(const std::string& path, const CoordBuffer& coords,
               std::span<const value_t> values) {
  detail::require(coords.size() == values.size(),
                  "coordinate and value counts differ");
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path);
  out.precision(17);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const auto p = coords.point(i);
    for (index_t c : p) out << c << '\t';
    out << values[i] << '\n';
  }
  detail::require(static_cast<bool>(out), "write failed: " + path);
}

std::pair<CoordBuffer, std::vector<value_t>> read_tsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path);
  CoordBuffer coords;
  std::vector<value_t> values;
  std::string line;
  std::size_t rank = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::vector<std::string> cells;
    std::string cell;
    while (fields >> cell) cells.push_back(cell);
    detail::require(cells.size() >= 2, "TSV line needs >= 1 coord + value");
    if (rank == 0) {
      rank = cells.size() - 1;
      coords = CoordBuffer(rank);
    }
    detail::require(cells.size() == rank + 1, "inconsistent TSV rank");
    std::vector<index_t> point(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      point[d] = parse_index(cells[d]);
    }
    coords.append(point);
    values.push_back(std::stod(cells[rank]));
  }
  return {std::move(coords), std::move(values)};
}

Shape store_shape(const std::string& directory) {
  // Sorted walk for determinism; a fragment whose header will not decode
  // (torn write, bit rot) is skipped so one corrupt file cannot stop the
  // CLI from discovering the store shape from its healthy siblings.
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".asf") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    try {
      return decode_fragment_info(read_file(path.string())).shape;
    } catch (const Error&) {
      continue;
    }
  }
  throw FormatError("no readable fragments found in " + directory);
}

}  // namespace artsparse::cli
