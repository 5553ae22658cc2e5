// Graceful-degradation reads: under ReadFaultPolicy::kSkip a store with one
// corrupt (or vanished) fragment still answers queries from the remaining
// fragments and reports what it dropped; under kStrict (the default) the
// same store fails loudly, exactly as before.
#include "storage/fragment_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/error.hpp"
#include "corruption_support.hpp"
#include "storage/file_io.hpp"

namespace artsparse {
namespace {

namespace fs = std::filesystem;

class ReadPolicy : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::fresh_temp_dir("readpolicy"); }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Three single-point fragments in disjoint cells of a 16x16 tensor.
  /// Returns the per-fragment write results in write order.
  std::vector<WriteResult> populate(FragmentStore& store) {
    std::vector<WriteResult> written;
    const index_t cells[][2] = {{1, 1}, {5, 5}, {9, 9}};
    for (std::size_t i = 0; i < 3; ++i) {
      CoordBuffer coords(2);
      coords.append({cells[i][0], cells[i][1]});
      written.push_back(store.write(
          coords, std::vector<value_t>{static_cast<value_t>(i + 1)},
          OrgKind::kCoo));
    }
    return written;
  }

  /// Truncates `path` in place, modeling corruption that appears after the
  /// store was opened (the open-time sweep cannot have quarantined it).
  static void tear(const std::string& path) {
    const Bytes whole = read_file(path);
    write_file(path, Bytes(whole.begin(),
                           whole.begin() + static_cast<std::ptrdiff_t>(
                                               whole.size() / 2)));
  }

  fs::path dir_;
};

TEST_F(ReadPolicy, StrictIsTheDefaultAndThrows) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  const std::vector<WriteResult> written = populate(store);
  EXPECT_EQ(store.read_fault_policy(), ReadFaultPolicy::kStrict);
  tear(written[1].path);
  EXPECT_THROW(store.scan_region(Box::whole(shape)), Error);
}

TEST_F(ReadPolicy, SkipAnswersFromHealthyFragmentsAndReportsTheBadOne) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  const std::vector<WriteResult> written = populate(store);
  store.set_read_fault_policy(ReadFaultPolicy::kSkip);
  EXPECT_EQ(store.read_fault_policy(), ReadFaultPolicy::kSkip);
  tear(written[1].path);

  const ReadResult result = store.scan_region(Box::whole(shape));
  EXPECT_EQ(result.fragments_visited, 3u);
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].path, written[1].path);
  EXPECT_FALSE(result.skipped[0].error.empty());
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0], 1.0);
  EXPECT_EQ(result.values[1], 3.0);
}

TEST_F(ReadPolicy, SkipCoversThePointReadPathToo) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  const std::vector<WriteResult> written = populate(store);
  store.set_read_fault_policy(ReadFaultPolicy::kSkip);
  tear(written[0].path);

  CoordBuffer queries(2);
  queries.append({1, 1});
  queries.append({9, 9});
  const ReadResult result = store.read(queries);
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].path, written[0].path);
  ASSERT_EQ(result.values.size(), 1u);  // (1,1) lived in the torn fragment
  EXPECT_EQ(result.values[0], 3.0);
}

TEST_F(ReadPolicy, SkipReportsAFragmentDeletedUnderneathTheStore) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  const std::vector<WriteResult> written = populate(store);
  store.set_read_fault_policy(ReadFaultPolicy::kSkip);
  fs::remove(written[2].path);

  const ReadResult result = store.scan_region(Box::whole(shape));
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].path, written[2].path);
  EXPECT_EQ(result.values.size(), 2u);
}

TEST_F(ReadPolicy, CleanStoreReportsNothingSkipped) {
  const Shape shape{16, 16};
  FragmentStore store(dir_, shape);
  populate(store);
  store.set_read_fault_policy(ReadFaultPolicy::kSkip);
  const ReadResult result = store.scan_region(Box::whole(shape));
  EXPECT_TRUE(result.skipped.empty());
  EXPECT_EQ(result.values.size(), 3u);
}

TEST_F(ReadPolicy, SkipSurvivesCrcValidStructuralCorruption) {
  // A corrupt index with a recomputed checksum passes the open-time header
  // sweep; only the hardened loader catches it, mid-read. kSkip must
  // degrade instead of failing the query.
  FragmentStore store(dir_, testing::fig1_shape());
  store.write(testing::fig1_coords(), testing::fig1_values(),
              OrgKind::kGcsr);
  const WriteResult second = store.write(
      testing::fig1_coords(), testing::fig1_values(), OrgKind::kGcsr);
  write_file(second.path, testing::corrupt_nonmonotone_offsets());
  store.set_read_fault_policy(ReadFaultPolicy::kSkip);

  const ReadResult result =
      store.scan_region(Box::whole(testing::fig1_shape()));
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].path, second.path);
  EXPECT_EQ(result.values.size(), testing::fig1_values().size());
}

}  // namespace
}  // namespace artsparse
