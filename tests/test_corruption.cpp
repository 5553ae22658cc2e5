// Table-driven corruption-corpus test: every seeded corruption class must
// surface as a typed artsparse error or a named validator issue — never as
// silent acceptance (and, under the sanitizer jobs, never as UB).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "check/issues.hpp"
#include "check/validate.hpp"
#include "core/error.hpp"
#include "corruption_support.hpp"
#include "formats/registry.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment.hpp"
#include "storage/fragment_cache.hpp"

namespace artsparse {
namespace {

using testing::valid_fragment_bytes;

bool has_rule(const check::Issues& issues, const std::string& rule) {
  const auto& items = issues.items();
  return std::any_of(items.begin(), items.end(),
                     [&](const check::Issue& issue) {
                       return issue.rule == rule;
                     });
}

/// Whether check_fragment_bytes() said the fragment does not open: a
/// framing rule of its header pass, or a rule of the open itself.
bool names_open_failure(const check::Issues& issues) {
  for (const check::Issue& issue : issues.items()) {
    const std::string& rule = issue.rule;
    if (rule == "fragment.size" || rule == "fragment.checksum") return true;
    if (rule == "fragment.header" || rule == "fragment.decode") return true;
    if (rule == "format.load") return true;
  }
  return false;
}

check::Issues check_bytes(const Bytes& bytes, check::Depth depth) {
  check::Issues issues;
  check::check_fragment_bytes(bytes, depth, issues);
  return issues;
}

TEST(CorruptionCorpus, ValidFragmentsPassAllDepths) {
  for (OrgKind org : all_org_kinds()) {
    for (CodecKind codec : {CodecKind::kIdentity, CodecKind::kDeltaVarint,
                            CodecKind::kRle}) {
      const Bytes bytes = valid_fragment_bytes(org, codec);
      const check::Issues issues = check_bytes(bytes, check::Depth::kFull);
      EXPECT_TRUE(issues.ok())
          << to_string(org) << "/" << to_string(codec) << ": "
          << issues.summary();
    }
  }
}

TEST(CorruptionCorpus, TruncatedBufferIsRejectedAtEveryCut) {
  for (OrgKind org : all_org_kinds()) {
    const Bytes valid = valid_fragment_bytes(org);
    for (std::size_t cut : {valid.size() / 4, valid.size() / 2,
                            valid.size() - 1}) {
      const Bytes bytes(valid.begin(),
                        valid.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(view_fragment(bytes), FormatError)
          << to_string(org) << " cut at " << cut;
      EXPECT_FALSE(check_bytes(bytes, check::Depth::kHeader).ok())
          << to_string(org) << " cut at " << cut;
    }
  }
}

TEST(CorruptionCorpus, BitFlipAnywhereFailsTheChecksum) {
  const Bytes valid = valid_fragment_bytes(OrgKind::kSortedCoo);
  // Flip one bit at a spread of positions across the payload; the CRC
  // trailer must catch each of them before any parsing happens.
  for (std::size_t pos = 4; pos + sizeof(std::uint32_t) < valid.size();
       pos += valid.size() / 16 + 1) {
    Bytes bytes = valid;
    bytes[pos] ^= std::byte{0x01};
    EXPECT_THROW(view_fragment(bytes), FormatError) << "flip at " << pos;
    const check::Issues issues = check_bytes(bytes, check::Depth::kHeader);
    EXPECT_TRUE(has_rule(issues, "fragment.checksum") ||
                has_rule(issues, "fragment.header"))
        << "flip at " << pos << ": " << issues.summary();
  }
}

TEST(CorruptionCorpus, NonMonotoneOffsetsAreRejectedByLoad) {
  for (OrgKind org : {OrgKind::kGcsr, OrgKind::kGcsc}) {
    const Bytes bytes = testing::corrupt_nonmonotone_offsets(org);
    // The CRC was resealed, so the framing checks out...
    const FragmentView view = view_fragment(bytes);
    // ...and the always-on load() contract must refuse the index.
    EXPECT_THROW(open_fragment(view), FormatError) << to_string(org);
    const check::Issues issues =
        check_bytes(bytes, check::Depth::kStructure);
    EXPECT_TRUE(has_rule(issues, "format.load"))
        << to_string(org) << ": " << issues.summary();
  }
}

TEST(CorruptionCorpus, MinorIndexPastBoundIsCaughtByDeepValidation) {
  const std::pair<OrgKind, const char*> cases[] = {
      {OrgKind::kGcsr, "gcsr.col_ind.range"},
      {OrgKind::kGcsc, "gcsc.row_ind.range"},
  };
  for (const auto& [org, rule] : cases) {
    // Cheap load(): a paranoid one would already throw.
    const check::ParanoidGuard cheap_load(false);
    const OpenFragment open =
        open_fragment(view_fragment(testing::corrupt_minor_index(org)));
    check::Issues issues;
    open.format->check_invariants(issues);
    EXPECT_TRUE(has_rule(issues, rule))
        << to_string(org) << ": " << issues.summary();
  }
}

TEST(CorruptionCorpus, OutOfShapeCoordIsCaughtByDeepValidation) {
  const Bytes bytes = testing::corrupt_out_of_shape_coord();
  // Cheap load() checks alone do not scan coordinates, so the index loads
  // (with paranoid mode off, whatever ARTSPARSE_PARANOID says)...
  const check::ParanoidGuard cheap_load(false);
  const OpenFragment open = open_fragment(view_fragment(bytes));
  // ...but the deep invariant pass pins the exact rule.
  check::Issues issues;
  open.format->check_invariants(issues);
  EXPECT_TRUE(has_rule(issues, "coo.coords.in_shape")) << issues.summary();
  EXPECT_THROW(open.format->validate(), FormatError);
  EXPECT_FALSE(check_bytes(bytes, check::Depth::kStructure).ok());
}

TEST(CorruptionCorpus, BadMapPermutationFailsTheCountCrossCheck) {
  const Bytes bytes = testing::corrupt_bad_map();
  const check::Issues issues = check_bytes(bytes, check::Depth::kHeader);
  EXPECT_TRUE(has_rule(issues, "fragment.counts")) << issues.summary();
}

TEST(CorruptionCorpus, UnsortedSortedCooIsFlagged) {
  // A SortedCOO index whose points are out of order: every binary-search
  // lookup silently degrades, so the deep validator must flag it.
  const Bytes bytes = testing::corrupt_unsorted_sorted_coo();

  // The cheap load accepts it; a paranoid one would throw before the
  // validator could be asked.
  const check::ParanoidGuard cheap_load(false);
  const OpenFragment open = open_fragment(view_fragment(bytes));
  check::Issues issues;
  open.format->check_invariants(issues);
  EXPECT_TRUE(has_rule(issues, "sorted_coo.order")) << issues.summary();
}

TEST(CorruptionCorpus, UnderstatedPointCountIsCaughtAtStructureDepth) {
  const Bytes bytes = testing::corrupt_understated_point_count();
  ASSERT_TRUE(check_bytes(bytes, check::Depth::kHeader).ok());
  const check::Issues issues = check_bytes(bytes, check::Depth::kStructure);
  EXPECT_TRUE(has_rule(issues, "fragment.point_count")) << issues.summary();
}

TEST(CorruptionCorpus, LooseBboxIsCaughtAtFullDepth) {
  const Bytes bytes = testing::corrupt_loose_bbox();
  const check::Issues issues = check_bytes(bytes, check::Depth::kFull);
  EXPECT_FALSE(issues.ok());
}

/// Reads and `artsparse check` open a fragment through the same
/// view_fragment() + open_fragment(), so at structure depth check names a
/// failure to open exactly when that open throws.
TEST(CorruptionCorpus, CheckReportsAnOpenFailureExactlyWhenReadsFail) {
  const check::ParanoidGuard cheap_load(false);
  std::vector<std::pair<std::string, Bytes>> cases = {
      {"truncated", testing::corrupt_truncated()},
      {"checksum", testing::corrupt_checksum()},
      {"nonmonotone_gcsr",
       testing::corrupt_nonmonotone_offsets(OrgKind::kGcsr)},
      {"nonmonotone_gcsc",
       testing::corrupt_nonmonotone_offsets(OrgKind::kGcsc)},
      {"minor_index_gcsr", testing::corrupt_minor_index(OrgKind::kGcsr)},
      {"minor_index_gcsc", testing::corrupt_minor_index(OrgKind::kGcsc)},
      {"out_of_shape_coord", testing::corrupt_out_of_shape_coord()},
      {"unsorted_sorted_coo", testing::corrupt_unsorted_sorted_coo()},
      {"bad_map", testing::corrupt_bad_map()},
      {"understated_point_count", testing::corrupt_understated_point_count()},
      {"loose_bbox", testing::corrupt_loose_bbox()},
  };
  const std::filesystem::path corpus(ARTSPARSE_FRAGMENT_CORPUS_DIR);
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    cases.emplace_back(entry.path().filename().string(),
                       read_file(entry.path().string()));
  }
  ASSERT_GE(cases.size(), 11u + 22u);
  std::size_t failing_opens = 0;
  for (const auto& [name, bytes] : cases) {
    bool open_throws = false;
    try {
      open_fragment(view_fragment(bytes));
    } catch (const Error&) {
      open_throws = true;
    }
    failing_opens += open_throws ? 1 : 0;
    const check::Issues issues =
        check_bytes(bytes, check::Depth::kStructure);
    EXPECT_EQ(names_open_failure(issues), open_throws)
        << name << ": " << issues.summary();
  }
  // Truncated, checksum and both non-monotone cases.
  EXPECT_EQ(failing_opens, 4u);
}

}  // namespace
}  // namespace artsparse
