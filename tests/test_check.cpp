// Tests for the artsparse::check subsystem itself: the contract macro, the
// paranoid-mode switch, the Issues collector, per-format deep validators on
// healthy indexes, the R-tree self-check, and the store-level fsck engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "check/fsck.hpp"
#include "check/issues.hpp"
#include "check/validate.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "corruption_support.hpp"
#include "formats/registry.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_store.hpp"
#include "storage/rtree.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

TEST(Contracts, AssertPassesAndThrowsFormatError) {
  EXPECT_NO_THROW(ARTSPARSE_ASSERT(2 + 2 == 4, "arithmetic still works"));
  try {
    ARTSPARSE_ASSERT(1 == 2, "broken invariant");
    FAIL() << "ARTSPARSE_ASSERT did not throw";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("broken invariant"), std::string::npos) << what;
  }
}

TEST(Contracts, ParanoidGuardOverridesAndRestores) {
  // With no override, the ARTSPARSE_PARANOID environment variable decides
  // (CI's paranoid-mode job sets it); unset means off.
  const bool from_env = env_flag("ARTSPARSE_PARANOID").value_or(false);
  EXPECT_EQ(check::paranoid_enabled(), from_env);
  {
    check::ParanoidGuard on(true);
    EXPECT_TRUE(check::paranoid_enabled());
    check::set_paranoid(false);
    EXPECT_FALSE(check::paranoid_enabled());
    check::set_paranoid(true);
    EXPECT_TRUE(check::paranoid_enabled());
  }
  // After the guard, the environment's setting is back.
  EXPECT_EQ(check::paranoid_enabled(), from_env);
}

TEST(Contracts, ParanoidLoadRejectsOutOfShapeCoords) {
  const Bytes corrupt = testing::corrupt_out_of_shape_coord();
  {
    check::ParanoidGuard off(false);
    EXPECT_NO_THROW(open_fragment(view_fragment(corrupt)));
  }
  {
    check::ParanoidGuard on(true);
    EXPECT_THROW(open_fragment(view_fragment(corrupt)), FormatError);
    // Healthy indexes still load in paranoid mode.
    const Bytes good = testing::valid_fragment_bytes(OrgKind::kCoo);
    EXPECT_NO_THROW(open_fragment(view_fragment(good)));
  }
}

TEST(IssuesCollector, CollectsSummarizesAndRaises) {
  check::Issues issues;
  EXPECT_TRUE(issues.ok());
  EXPECT_NO_THROW(issues.raise_if_failed("clean"));
  issues.add("a.rule", "first detail");
  issues.add("b.rule", "second detail");
  EXPECT_FALSE(issues.ok());
  EXPECT_EQ(issues.size(), 2u);
  const std::string summary = issues.summary();
  EXPECT_NE(summary.find("a.rule: first detail"), std::string::npos);
  EXPECT_NE(summary.find("b.rule"), std::string::npos);
  try {
    issues.raise_if_failed("ctx");
    FAIL() << "raise_if_failed did not throw";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("a.rule"), std::string::npos);
  }
}

TEST(DeepValidators, HealthyIndexesPassForEveryOrganization) {
  for (OrgKind org : all_org_kinds()) {
    auto built = make_format(org);
    built->build(testing::fig1_coords(), testing::fig1_shape());
    check::Issues issues;
    built->check_invariants(issues);
    EXPECT_TRUE(issues.ok()) << to_string(org) << ": " << issues.summary();
    EXPECT_NO_THROW(built->validate());

    // A default-constructed (empty) format is also a valid object.
    auto fresh = make_format(org);
    check::Issues empty_issues;
    fresh->check_invariants(empty_issues);
    EXPECT_TRUE(empty_issues.ok())
        << to_string(org) << " (empty): " << empty_issues.summary();
  }
}

TEST(DeepValidators, DepthNamesRoundTrip) {
  for (check::Depth depth : {check::Depth::kHeader, check::Depth::kStructure,
                             check::Depth::kFull}) {
    EXPECT_EQ(check::depth_from_string(check::to_string(depth)), depth);
  }
  EXPECT_THROW(check::depth_from_string("paranoid"), FormatError);
}

TEST(RTreeCheck, BulkLoadedTreePassesSelfCheck) {
  std::vector<Box> boxes;
  for (index_t i = 0; i < 100; ++i) {
    boxes.push_back(Box({i * 2, i * 3}, {i * 2 + 5, i * 3 + 4}));
  }
  const RTree tree = RTree::bulk_load(boxes, /*fanout=*/4);
  check::Issues issues;
  tree.check_invariants(issues);
  EXPECT_TRUE(issues.ok()) << issues.summary();

  const RTree empty;
  check::Issues empty_issues;
  empty.check_invariants(empty_issues);
  EXPECT_TRUE(empty_issues.ok()) << empty_issues.summary();
}

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::fresh_temp_dir("fsck");
    FragmentStore store(dir_, testing::fig1_shape());
    store.write(testing::fig1_coords(), testing::fig1_values(),
                OrgKind::kGcsr);
    store.write(testing::fig1_coords(), testing::fig1_values(),
                OrgKind::kCsf);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path first_fragment() const {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".asf") return entry.path();
    }
    ADD_FAILURE() << "store has no fragment files";
    return {};
  }

  fs::path dir_;
};

TEST_F(FsckTest, CleanStorePassesAtEveryDepth) {
  for (check::Depth depth : {check::Depth::kHeader, check::Depth::kStructure,
                             check::Depth::kFull}) {
    const check::StoreReport report = check::check_store(dir_, depth);
    EXPECT_EQ(report.checked(), 2u);
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_TRUE(report.ok()) << check::to_string(depth);
  }
}

TEST_F(FsckTest, CorruptFragmentIsReportedNotThrown) {
  write_file(first_fragment(), testing::corrupt_checksum());
  const check::StoreReport report =
      check::check_store(dir_, check::Depth::kHeader);
  EXPECT_EQ(report.checked(), 2u);
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_FALSE(report.ok());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fragment.checksum\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"checked\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos) << json;
}

TEST_F(FsckTest, UnreadableFileBecomesAnIoIssue) {
  const check::FragmentReport report = check::check_fragment_file(
      dir_ / "zz_missing.asf", check::Depth::kHeader);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues.items()[0].rule, "fragment.io");
}

TEST_F(FsckTest, NonFragmentDirectoryEntriesAreSkipped) {
  fs::create_directory(dir_ / "subdir.asf");
  std::ofstream(dir_ / "notes.txt") << "not a fragment";
  const check::StoreReport report =
      check::check_store(dir_, check::Depth::kStructure);
  EXPECT_EQ(report.checked(), 2u);
  EXPECT_TRUE(report.ok());
}

/// File names of `paths`, in order.
std::vector<std::string> file_names(const std::vector<std::string>& paths) {
  std::vector<std::string> names;
  for (const std::string& path : paths) {
    names.push_back(fs::path(path).filename().string());
  }
  return names;
}

TEST(StoreSweep, OpenAndRepairSetAsideExactlyWhatCheckFails) {
  const fs::path original = testing::fresh_temp_dir("sweep");
  {
    FragmentStore store(original, testing::fig1_shape());
    store.write(testing::fig1_coords(), testing::fig1_values(),
                OrgKind::kGcsr);
  }
  const std::pair<const char*, Bytes> files[] = {
      {"frag_000010.asf", testing::corrupt_truncated()},
      {"frag_000011.asf", testing::corrupt_checksum()},
      {"frag_000012.asf",
       testing::corrupt_nonmonotone_offsets(OrgKind::kGcsr)},
      {"frag_000013.asf",
       testing::corrupt_nonmonotone_offsets(OrgKind::kGcsc)},
      {"frag_000014.asf", testing::corrupt_minor_index(OrgKind::kGcsr)},
      {"frag_000015.asf", testing::corrupt_out_of_shape_coord()},
      {"frag_000016.asf", testing::corrupt_bad_map()},
      {"frag_000017.asf.tmp", testing::corrupt_truncated()},
      {"notes.txt", Bytes(8, std::byte{0x2a})},
  };
  for (const auto& [name, bytes] : files) {
    write_file((original / name).string(), bytes);
  }
  const fs::path opened = testing::fresh_temp_dir("sweep_open");
  const fs::path repaired = testing::fresh_temp_dir("sweep_repair");
  fs::copy(original, opened);
  fs::copy(original, repaired);

  const FragmentStore store(opened, testing::fig1_shape());
  const check::StoreReport open_report = store.last_scan();
  const check::StoreReport repair_report =
      check::repair_store(repaired, check::Depth::kHeader);
  EXPECT_EQ(file_names(open_report.swept_tmp),
            file_names(repair_report.swept_tmp));
  EXPECT_EQ(file_names(open_report.quarantined),
            file_names(repair_report.quarantined));
  EXPECT_EQ(file_names(open_report.strays), file_names(repair_report.strays));
  EXPECT_EQ(file_names(open_report.swept_tmp),
            std::vector<std::string>{"frag_000017.asf.tmp"});
  EXPECT_EQ(file_names(open_report.strays),
            std::vector<std::string>{"notes.txt"});

  // The read-only check changes nothing, lists the orphan as a stray and
  // fails exactly the fragments open and repair set aside: the three the
  // header depth catches.
  const check::StoreReport check_report =
      check::check_store(original, check::Depth::kHeader);
  std::vector<std::string> failed;
  for (const check::FragmentReport& fragment : check_report.fragments) {
    if (!fragment.ok()) failed.push_back(fragment.path);
  }
  EXPECT_EQ(file_names(failed), file_names(repair_report.quarantined));
  EXPECT_EQ(file_names(failed),
            (std::vector<std::string>{"frag_000010.asf", "frag_000011.asf",
                                      "frag_000016.asf"}));
  EXPECT_EQ(file_names(check_report.strays),
            (std::vector<std::string>{"frag_000017.asf.tmp", "notes.txt"}));
  EXPECT_TRUE(fs::exists(original / "frag_000010.asf"));
  EXPECT_TRUE(fs::exists(original / "frag_000017.asf.tmp"));

  // The store holds the fragments that passed, with the headers the sweep
  // parsed.
  EXPECT_EQ(store.fragment_count(),
            check_report.checked() - check_report.failed());
  ASSERT_EQ(open_report.checked(), 8u);
  const check::FragmentReport& healthy = open_report.fragments[0];
  EXPECT_EQ(healthy.info.org, OrgKind::kGcsr);
  EXPECT_EQ(healthy.info.point_count, testing::fig1_coords().size());
  EXPECT_EQ(healthy.file_bytes, fs::file_size(opened / "frag_000000.asf"));
  fs::remove_all(original);
  fs::remove_all(opened);
  fs::remove_all(repaired);
}

TEST_F(FsckTest, MissingDirectoryThrowsIoError) {
  EXPECT_THROW(check::check_store(dir_ / "no_such_subdir",
                                  check::Depth::kHeader),
               IoError);
}

}  // namespace
}  // namespace artsparse
