// End-to-end test of `artsparse_cli check` (the acceptance criterion of the
// invariant-checking subsystem): for each of the five seeded corruption
// classes, a store containing one corrupted fragment must make the CLI exit
// non-zero, and a clean store must exit zero. The store commands it leans on
// (`info`, `repair`, `read --read-policy`, `generate --tile`) are driven here
// too. The CLI binary path is injected at compile time via ARTSPARSE_CLI_PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/fsck.hpp"
#include "corruption_support.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"
#include "storage/serializer.hpp"
#include "tiles/tile_grid.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

/// Runs the CLI and returns its exit code (stderr discarded); stdout is
/// appended to `output` when given.
int run_cli(const std::string& arguments, std::string* output = nullptr) {
  const std::string command =
      std::string(ARTSPARSE_CLI_PATH) + " " + arguments + " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    if (output != nullptr) output->append(buffer, got);
  }
  const int status = ::pclose(pipe);
  if (status == -1) return -1;
#ifdef WIFEXITED
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
#else
  return status;
#endif
}

fs::path make_clean_store(const std::string& tag) {
  const fs::path dir = testing::fresh_temp_dir("cli_" + tag);
  FragmentStore store(dir, testing::fig1_shape());
  store.write(testing::fig1_coords(), testing::fig1_values(), OrgKind::kGcsr);
  store.write(testing::fig1_coords(), testing::fig1_values(), OrgKind::kCsf);
  return dir;
}

fs::path a_fragment_of(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".asf") return entry.path();
  }
  ADD_FAILURE() << "no fragment files in " << dir;
  return {};
}

/// The fragment names `artsparse info` lists for `dir`, in listed order.
std::vector<std::string> info_fragment_names(const fs::path& dir,
                                             std::string* output) {
  EXPECT_EQ(run_cli("info --store " + dir.string(), output), 0);
  std::vector<std::string> listed;
  std::istringstream lines(*output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  frag_", 0) == 0) {
      listed.push_back(line.substr(2, line.find(':') - 2));
    }
  }
  return listed;
}

struct CorruptionClass {
  const char* name;
  Bytes (*generate)();
};

TEST(CliCheck, CleanStoreExitsZeroAtEveryDepth) {
  const fs::path dir = make_clean_store("clean");
  for (const char* depth : {"header", "structure", "full"}) {
    EXPECT_EQ(run_cli("check --store " + dir.string() + " --depth " + depth),
              0)
        << depth;
  }
  EXPECT_EQ(run_cli("check --store " + dir.string() + " --json"), 0);
  fs::remove_all(dir);
}

TEST(CliCheck, EveryCorruptionClassMakesCheckExitNonZero) {
  const CorruptionClass classes[] = {
      {"truncated_buffer", testing::corrupt_truncated},
      {"bit_flipped_checksum", testing::corrupt_checksum},
      {"non_monotone_offsets", testing::corrupt_nonmonotone_offsets},
      {"out_of_shape_coord", testing::corrupt_out_of_shape_coord},
      {"bad_map_permutation", testing::corrupt_bad_map},
  };
  for (const CorruptionClass& corruption : classes) {
    const fs::path dir = make_clean_store(corruption.name);
    write_file(a_fragment_of(dir), corruption.generate());
    // Default depth (structure) must flag all five classes.
    EXPECT_NE(run_cli("check --store " + dir.string()), 0)
        << corruption.name;
    EXPECT_NE(run_cli("check --store " + dir.string() + " --json"), 0)
        << corruption.name << " (json)";
    fs::remove_all(dir);
  }
}

TEST(CliCheck, MissingStoreAndBadDepthFail) {
  EXPECT_NE(run_cli("check --store /nonexistent/artsparse_store"), 0);
  const fs::path dir = make_clean_store("baddepth");
  EXPECT_NE(run_cli("check --store " + dir.string() + " --depth bogus"), 0);
  EXPECT_NE(run_cli("check"), 0);  // --store is required
  fs::remove_all(dir);
}

TEST(CliCheck, RepairSweepsOrphansAndQuarantinesThenCheckIsClean) {
  const fs::path dir = make_clean_store("repair");
  // A crashed commit's stage file plus one torn fragment.
  write_file((dir / "frag_000031.asf.tmp").string(),
             testing::corrupt_truncated());
  write_file((dir / "frag_000032.asf").string(),
             testing::corrupt_truncated());
  EXPECT_NE(run_cli("check --store " + dir.string()), 0);

  EXPECT_EQ(run_cli("repair --store " + dir.string()), 0);
  EXPECT_FALSE(fs::exists(dir / "frag_000031.asf.tmp"));
  EXPECT_FALSE(fs::exists(dir / "frag_000032.asf"));
  EXPECT_TRUE(fs::exists(dir / "frag_000032.asf.quarantine"));
  EXPECT_EQ(run_cli("check --store " + dir.string() + " --depth full"), 0);
  fs::remove_all(dir);
}

TEST(CliCheck, InfoListsFragmentsInNameOrderWithoutQuarantined) {
  const fs::path dir = testing::fresh_temp_dir("cli_info");
  {
    FragmentStore store(dir, testing::fig1_shape());
    for (int i = 0; i < 12; ++i) {
      store.write(testing::fig1_coords(), testing::fig1_values(),
                  i % 2 == 0 ? OrgKind::kGcsr : OrgKind::kCoo);
    }
  }
  write_file((dir / "frag_000005.asf").string(), testing::corrupt_truncated());

  std::string output;
  const std::vector<std::string> listed = info_fragment_names(dir, &output);
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    if (i == 5) continue;
    char name[32];
    std::snprintf(name, sizeof(name), "frag_%06d.asf", i);
    expected.emplace_back(name);
  }
  EXPECT_EQ(listed, expected) << output;
  EXPECT_NE(output.find("fragments: 11\n"), std::string::npos) << output;
  EXPECT_NE(output.find("  frag_000000.asf: GCSR++, 5 points"),
            std::string::npos)
      << output;
  EXPECT_TRUE(fs::exists(dir / "frag_000005.asf.quarantine"));
  fs::remove_all(dir);
}

TEST(CliCheck, ReadPolicySkipDegradesWhereStrictFails) {
  const fs::path dir = make_clean_store("readpolicy");
  // CRC-valid structural corruption: passes the open-time header sweep but
  // fails the hardened loader mid-read.
  write_file(a_fragment_of(dir), testing::corrupt_nonmonotone_offsets());
  EXPECT_NE(run_cli("read --store " + dir.string()), 0);
  EXPECT_NE(run_cli("read --store " + dir.string() +
                    " --read-policy strict"),
            0);
  EXPECT_EQ(run_cli("read --store " + dir.string() + " --read-policy skip"),
            0);
  EXPECT_EQ(run_cli("scan --store " + dir.string() + " --read-policy skip"),
            0);
  EXPECT_NE(run_cli("read --store " + dir.string() + " --read-policy bogus"),
            0);
  fs::remove_all(dir);
}

/// One line per `*.asf` in `dir`, in name order: the file name, the tile
/// of `grid` holding its bounding box's low corner, its organization, its
/// size and the CRC-32 of its bytes before the trailing checksum (a CRC over
/// the whole file would be the same constant for every intact fragment).
std::vector<std::string> describe_tile_fragments(const fs::path& dir,
                                                 const TileGrid& grid) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".asf") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> lines;
  for (const fs::path& path : paths) {
    const check::FragmentReport report =
        check::check_fragment_file(path, check::Depth::kFull);
    EXPECT_TRUE(report.ok()) << path;
    const Bytes bytes = read_file(path.string());
    char line[128];
    std::snprintf(line, sizeof(line), "%s tile %llu %s %zu bytes crc %08x",
                  path.filename().string().c_str(),
                  static_cast<unsigned long long>(
                      grid.tile_id_of(report.info.bbox.lo())),
                  to_string(report.info.org).c_str(), bytes.size(),
                  static_cast<unsigned>(crc32(
                      std::span(bytes).first(bytes.size() - 4))));
    lines.emplace_back(line);
  }
  return lines;
}

TEST(CliGenerate, TiledWriteMatchesPinnedFragments) {
  // A seeded 2-D MSP dataset cut into 16x16 tiles, once with a fixed
  // organization and once with the advisor choosing per tile. File names,
  // the organization of each tile and the bytes of every fragment are
  // pinned from a known-good build: a refactor of the tiled write must
  // leave them unchanged.
  const std::string generate =
      "generate --shape 64,64 --pattern msp --density 0.1 --seed 5 "
      "--tile 16,16 --store ";
  const TileGrid grid(Shape{64, 64}, Shape{16, 16});
  const struct {
    const char* org_flag;
    std::vector<std::string> expected;
  } cases[] = {
      {" --org gcsr",
       {
           "frag_000000.asf tile 1 GCSR++ 272 bytes crc 6dc9d03b",
           "frag_000001.asf tile 5 GCSR++ 2112 bytes crc 86a97d42",
           "frag_000002.asf tile 6 GCSR++ 2016 bytes crc fb3fe16a",
           "frag_000003.asf tile 8 GCSR++ 272 bytes crc cd8c65ce",
           "frag_000004.asf tile 9 GCSR++ 1864 bytes crc 9f32e3a3",
           "frag_000005.asf tile 10 GCSR++ 1720 bytes crc 8a312c19",
           "frag_000006.asf tile 12 GCSR++ 272 bytes crc e6157a4e",
       }},
      // The advisor keeps GCSR++ for the dense block's tiles and picks COO
      // for the one-point background tiles.
      {"",
       {
           "frag_000000.asf tile 1 COO 199 bytes crc ad12da2c",
           "frag_000001.asf tile 5 GCSR++ 2112 bytes crc 86a97d42",
           "frag_000002.asf tile 6 GCSR++ 2016 bytes crc fb3fe16a",
           "frag_000003.asf tile 8 COO 199 bytes crc 11dbf6dd",
           "frag_000004.asf tile 9 GCSR++ 1864 bytes crc 9f32e3a3",
           "frag_000005.asf tile 10 GCSR++ 1720 bytes crc 8a312c19",
           "frag_000006.asf tile 12 COO 199 bytes crc 37ac278e",
       }},
  };
  for (const auto& c : cases) {
    const fs::path dir = testing::fresh_temp_dir("cli_tile_pin");
    ASSERT_EQ(run_cli(generate + dir.string() + c.org_flag), 0) << c.org_flag;
    EXPECT_EQ(describe_tile_fragments(dir, grid), c.expected) << c.org_flag;
    fs::remove_all(dir);
  }
}

TEST(CliGenerate, TileFragmentCountMatchesInfo) {
  for (const char* org_flag : {" --org coo", ""}) {
    const fs::path dir = testing::fresh_temp_dir("cli_tile_info");
    std::string generated;
    ASSERT_EQ(run_cli("generate --shape 32,32,32 --pattern gsp --density "
                      "0.01 --seed 3 --tile 16,16,16 --store " +
                          dir.string() + org_flag,
                      &generated),
              0)
        << org_flag;
    std::size_t tiles = 0;
    const std::size_t at = generated.find(" tile fragments");
    ASSERT_NE(at, std::string::npos) << generated;
    ASSERT_EQ(std::sscanf(generated.c_str() + generated.rfind(' ', at - 1),
                          "%zu", &tiles),
              1)
        << generated;
    EXPECT_EQ(tiles, 8u) << generated;  // 2x2x2 tiles, none of them empty

    std::string output;
    const std::vector<std::string> listed = info_fragment_names(dir, &output);
    ASSERT_EQ(listed.size(), tiles) << output;
    for (std::size_t i = 0; i < tiles; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "frag_%06zu.asf", i);
      EXPECT_EQ(listed[i], name) << output;
    }
    EXPECT_NE(output.find("fragments: " + std::to_string(tiles) + "\n"),
              std::string::npos)
        << output;
    if (*org_flag != '\0') {
      EXPECT_EQ(output.find("GCSR++"), std::string::npos) << output;
      EXPECT_NE(output.find(": COO, "), std::string::npos) << output;
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace artsparse
