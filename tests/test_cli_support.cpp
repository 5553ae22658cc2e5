#include "cli_support.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "test_support.hpp"

namespace artsparse::cli {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "artsparse");
  return parse_args(static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()));
}

TEST(CliArgs, CommandAndOptions) {
  const Args args =
      parse({"generate", "--shape", "256,256", "--density=0.01", "--print"});
  EXPECT_EQ(args.command, "generate");
  EXPECT_EQ(args.get("shape"), "256,256");
  EXPECT_EQ(args.get("density"), "0.01");
  EXPECT_TRUE(args.has("print"));
  EXPECT_FALSE(args.has("absent"));
  EXPECT_EQ(args.get("absent", "fallback"), "fallback");
}

TEST(CliArgs, NoCommand) {
  const Args args = parse({"--store", "dir"});
  EXPECT_TRUE(args.command.empty());
  EXPECT_EQ(args.get("store"), "dir");
}

TEST(CliParse, Shape) {
  EXPECT_EQ(parse_shape("256,128,64"), (Shape{256, 128, 64}));
  EXPECT_EQ(parse_shape("7"), (Shape{7}));
  EXPECT_THROW(parse_shape("12,x"), FormatError);
  EXPECT_THROW(parse_shape(""), FormatError);
}

TEST(CliParse, Region) {
  EXPECT_EQ(parse_region("10:20,30:40"), Box({10, 30}, {20, 40}));
  EXPECT_THROW(parse_region("10-20"), FormatError);
  EXPECT_THROW(parse_region("20:10"), FormatError);  // inverted bounds
}

TEST(CliParse, Pattern) {
  EXPECT_EQ(parse_pattern("TSP"), PatternKind::kTsp);
  EXPECT_EQ(parse_pattern("gsp"), PatternKind::kGsp);
  EXPECT_EQ(parse_pattern("cgp"), PatternKind::kGsp);  // Table II alias
  EXPECT_EQ(parse_pattern("msp"), PatternKind::kMsp);
  EXPECT_THROW(parse_pattern("nope"), FormatError);
}

TEST(CliParse, Org) {
  EXPECT_EQ(parse_org("coo"), OrgKind::kCoo);
  EXPECT_EQ(parse_org("GCSR++"), OrgKind::kGcsr);
  EXPECT_EQ(parse_org("gcsc"), OrgKind::kGcsc);
  EXPECT_EQ(parse_org("CSF"), OrgKind::kCsf);
  EXPECT_EQ(parse_org("sorted-coo"), OrgKind::kSortedCoo);
  EXPECT_THROW(parse_org("btree"), FormatError);
}

TEST(CliParse, ByteSize) {
  EXPECT_EQ(parse_byte_size("1048576"), 1048576u);
  EXPECT_EQ(parse_byte_size("64K"), 64u << 10);
  EXPECT_EQ(parse_byte_size("64k"), 64u << 10);
  EXPECT_EQ(parse_byte_size("256MiB"), 256u << 20);
  EXPECT_EQ(parse_byte_size("2M"), 2u << 20);
  EXPECT_EQ(parse_byte_size("1G"), 1u << 30);
  EXPECT_EQ(parse_byte_size("0"), 0u);
  EXPECT_THROW(parse_byte_size(""), FormatError);
  EXPECT_THROW(parse_byte_size("abc"), FormatError);
  EXPECT_THROW(parse_byte_size("12Q"), FormatError);
}

TEST(CliParse, Weights) {
  EXPECT_GT(parse_weights("read").read, parse_weights("read").write);
  EXPECT_GT(parse_weights("archive").space, 1.0);
  EXPECT_THROW(parse_weights("wat"), FormatError);
}

TEST(CliTsv, RoundTrip) {
  const auto dir = testing::fresh_temp_dir("cli_tsv");
  const auto path = (dir / "points.tsv").string();

  CoordBuffer coords(3);
  coords.append({1, 2, 3});
  coords.append({40, 50, 60});
  const std::vector<value_t> values{1.5, -2.25};
  write_tsv(path, coords, values);

  const auto [read_coords, read_values] = read_tsv(path);
  EXPECT_TRUE(read_coords == coords);
  EXPECT_EQ(read_values, values);
  std::filesystem::remove_all(dir);
}

TEST(CliTsv, InconsistentRankRejected) {
  const auto dir = testing::fresh_temp_dir("cli_tsv_bad");
  const auto path = (dir / "bad.tsv").string();
  {
    std::ofstream out(path);
    out << "1\t2\t3.0\n1\t2\t3\t4.0\n";
  }
  EXPECT_THROW(read_tsv(path), FormatError);
  std::filesystem::remove_all(dir);
}

TEST(CliTsv, MissingFileRejected) {
  EXPECT_THROW(read_tsv("/nonexistent/points.tsv"), IoError);
}

TEST(CliStoreShape, ReadsShapeFromFragments) {
  const auto dir = testing::fresh_temp_dir("cli_shape");
  const Shape shape{32, 32};
  {
    FragmentStore store(dir, shape);
    CoordBuffer coords(2);
    coords.append({1, 1});
    const std::vector<value_t> values{1.0};
    store.write(coords, values, OrgKind::kCoo);
  }
  EXPECT_EQ(store_shape(dir.string()), shape);
  std::filesystem::remove_all(dir);
}

TEST(CliStoreShape, EmptyDirectoryRejected) {
  const auto dir = testing::fresh_temp_dir("cli_empty");
  EXPECT_THROW(store_shape(dir.string()), FormatError);
  std::filesystem::remove_all(dir);
}

TEST(Report, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3u << 20), "3.00 MiB");
  EXPECT_EQ(format_bytes(5ull << 30), "5.00 GiB");
}

TEST(Report, FormatCacheStats) {
  CacheStats stats;
  stats.hits = 12;
  stats.misses = 4;
  stats.evictions = 1;
  stats.open_count = 3;
  stats.open_bytes = 1536;
  stats.budget_bytes = 256u << 20;
  EXPECT_EQ(format_cache_stats(stats),
            "cache: 12 hits / 4 misses (75.00% hit rate), 1 evictions, "
            "3 open (1.50 KiB of 256.00 MiB)");

  EXPECT_EQ(format_cache_stats(CacheStats{}),
            "cache: 0 hits / 0 misses (0.00% hit rate), 0 evictions, "
            "0 open (0 B of 0 B)");
}

}  // namespace
}  // namespace artsparse::cli
