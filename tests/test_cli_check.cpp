// End-to-end test of `artsparse_cli check` (the acceptance criterion of the
// invariant-checking subsystem): for each of the five seeded corruption
// classes, a store containing one corrupted fragment must make the CLI exit
// non-zero, and a clean store must exit zero. The CLI binary path is injected
// at compile time via ARTSPARSE_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "corruption_support.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"

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
  ASSERT_EQ(run_cli("info --store " + dir.string(), &output), 0);
  std::vector<std::string> listed;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  frag_", 0) == 0) {
      listed.push_back(line.substr(2, line.find(':') - 2));
    }
  }
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

}  // namespace
}  // namespace artsparse
