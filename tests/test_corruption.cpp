// Table-driven corruption-corpus test: every seeded corruption class must
// surface as a typed artsparse error or a named validator issue — never as
// silent acceptance (and, under the sanitizer jobs, never as UB).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "check/contracts.hpp"
#include "check/issues.hpp"
#include "check/validate.hpp"
#include "core/error.hpp"
#include "corruption_support.hpp"
#include "formats/registry.hpp"
#include "storage/fragment.hpp"

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
      EXPECT_THROW(decode_fragment(bytes), FormatError)
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
    EXPECT_THROW(decode_fragment(bytes), FormatError) << "flip at " << pos;
    const check::Issues issues = check_bytes(bytes, check::Depth::kHeader);
    EXPECT_TRUE(has_rule(issues, "fragment.checksum") ||
                has_rule(issues, "fragment.header"))
        << "flip at " << pos << ": " << issues.summary();
  }
}

TEST(CorruptionCorpus, NonMonotoneOffsetsAreRejectedByLoad) {
  for (OrgKind org : {OrgKind::kGcsr, OrgKind::kGcsc}) {
    const Bytes bytes = testing::corrupt_nonmonotone_offsets(org);
    // The CRC was recomputed, so the fragment itself decodes fine...
    const Fragment fragment = decode_fragment(bytes);
    // ...and the always-on load() contract must refuse the index.
    EXPECT_THROW(load_format(fragment.org, fragment.index), FormatError)
        << to_string(org);
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
    const Fragment fragment =
        decode_fragment(testing::corrupt_minor_index(org));
    // Plain load(): a paranoid load_format() would already throw.
    auto format = make_format(org);
    BufferReader reader(fragment.index);
    format->load(reader);
    check::Issues issues;
    format->check_invariants(issues);
    EXPECT_TRUE(has_rule(issues, rule))
        << to_string(org) << ": " << issues.summary();
  }
}

TEST(CorruptionCorpus, OutOfShapeCoordIsCaughtByDeepValidation) {
  const Bytes bytes = testing::corrupt_out_of_shape_coord();
  // Cheap load() checks alone do not scan coordinates, so the index loads
  // (with paranoid mode off, whatever ARTSPARSE_PARANOID says)...
  const check::ParanoidGuard cheap_load(false);
  const Fragment fragment = decode_fragment(bytes);
  auto format = load_format(fragment.org, fragment.index);
  // ...but the deep invariant pass pins the exact rule.
  check::Issues issues;
  format->check_invariants(issues);
  EXPECT_TRUE(has_rule(issues, "coo.coords.in_shape")) << issues.summary();
  EXPECT_THROW(format->validate(), FormatError);
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
  Fragment fragment =
      decode_fragment(valid_fragment_bytes(OrgKind::kSortedCoo));
  // Index layout (SortedCooFormat::save): shape vec | rank | flat vec.
  BufferReader reader(fragment.index);
  reader.get_u64_vec();  // shape extents
  reader.get_u64();      // rank
  reader.get_u64();      // flat length prefix
  // Move the first point past the second by spiking its leading coordinate
  // within the 3x3x3 shape.
  testing::poke_u64(fragment.index, reader.offset(), 2);
  const Bytes bytes = encode_fragment(fragment);

  // The cheap load accepts it; a paranoid one would throw before the
  // validator could be asked.
  const check::ParanoidGuard cheap_load(false);
  auto format = load_format(OrgKind::kSortedCoo,
                            decode_fragment(bytes).index);
  check::Issues issues;
  format->check_invariants(issues);
  EXPECT_TRUE(has_rule(issues, "sorted_coo.order")) << issues.summary();
}

TEST(CorruptionCorpus, UnderstatedPointCountIsCaughtAtStructureDepth) {
  Fragment fragment = decode_fragment(valid_fragment_bytes(OrgKind::kCsf));
  ASSERT_GE(fragment.point_count, 2u);
  fragment.point_count -= 1;
  fragment.values.pop_back();  // keep the header-level count check green
  const Bytes bytes = encode_fragment(fragment);
  ASSERT_TRUE(check_bytes(bytes, check::Depth::kHeader).ok());
  const check::Issues issues = check_bytes(bytes, check::Depth::kStructure);
  EXPECT_TRUE(has_rule(issues, "fragment.point_count")) << issues.summary();
}

TEST(CorruptionCorpus, LooseBboxIsCaughtAtFullDepth) {
  Fragment fragment = decode_fragment(valid_fragment_bytes(OrgKind::kBcsr));
  // Shrink the advertised bounding box so it no longer covers the points.
  fragment.bbox = Box({0, 0, 0}, {0, 0, 0});
  const Bytes bytes = encode_fragment(fragment);
  const check::Issues issues = check_bytes(bytes, check::Depth::kFull);
  EXPECT_FALSE(issues.ok());
}

}  // namespace
}  // namespace artsparse
