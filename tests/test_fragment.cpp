#include "storage/fragment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "corruption_support.hpp"
#include "formats/registry.hpp"
#include "storage/file_io.hpp"
#include "storage/fragment_cache.hpp"
#include "storage/serializer.hpp"

namespace artsparse {
namespace {

using testing::fig1_parts;

/// view_fragment() then open_fragment(): how every reader opens bytes.
OpenFragment open_bytes(const Bytes& bytes) {
  return open_fragment(view_fragment(bytes));
}

TEST(Fragment, EncodeDecodeRoundTrip) {
  testing::FragmentParts original = fig1_parts(OrgKind::kGcsr);
  const Bytes encoded = original.encode();
  const FragmentView view = view_fragment(encoded);
  const OpenFragment opened = open_fragment(view);

  EXPECT_EQ(opened.org, original.info.org);
  EXPECT_EQ(view.info.codec, original.info.codec);
  EXPECT_EQ(opened.shape, original.info.shape);
  EXPECT_EQ(opened.bbox, original.info.bbox);
  EXPECT_EQ(opened.point_count, original.info.point_count);
  EXPECT_EQ(opened.file_bytes, encoded.size());
  EXPECT_EQ(serialize_format(*opened.format),
            serialize_format(*original.format));
  EXPECT_EQ(opened.values, original.values);
}

TEST(Fragment, DecodedIndexReconstructsFormat) {
  const OpenFragment opened =
      open_bytes(testing::valid_fragment_bytes(OrgKind::kGcsr));
  const CoordBuffer coords = testing::fig1_coords();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_NE(opened.format->lookup(coords.point(i)), kNotFound);
  }
}

TEST(Fragment, RoundTripWithEveryCodec) {
  for (CodecKind codec :
       {CodecKind::kIdentity, CodecKind::kDelta, CodecKind::kVarint,
        CodecKind::kRle, CodecKind::kDeltaVarint}) {
    SCOPED_TRACE(to_string(codec));
    testing::FragmentParts original = fig1_parts(OrgKind::kGcsr, codec);
    const OpenFragment opened = open_bytes(original.encode());
    EXPECT_EQ(serialize_format(*opened.format),
              serialize_format(*original.format));
    EXPECT_EQ(opened.values, original.values);
  }
}

TEST(Fragment, HeaderOnlyDecode) {
  const Bytes encoded = testing::valid_fragment_bytes(OrgKind::kGcsr);
  const FragmentInfo info = decode_fragment_info(encoded);
  EXPECT_EQ(info.org, OrgKind::kGcsr);
  EXPECT_EQ(info.shape, testing::fig1_shape());
  EXPECT_EQ(info.point_count, 5u);
  EXPECT_EQ(info.value_count, 5u);
  EXPECT_EQ(info.bbox, Box({0, 0, 1}, {2, 2, 2}));
}

TEST(Fragment, CorruptionDetectedByChecksum) {
  Bytes encoded = testing::valid_fragment_bytes(OrgKind::kGcsr);
  encoded[encoded.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW(view_fragment(encoded), FormatError);
}

TEST(Fragment, TruncationRejected) {
  Bytes encoded = testing::valid_fragment_bytes(OrgKind::kGcsr);
  encoded.resize(encoded.size() - 16);
  EXPECT_THROW(view_fragment(encoded), FormatError);
}

TEST(Fragment, BadMagicRejected) {
  Bytes encoded = testing::valid_fragment_bytes(OrgKind::kGcsr);
  encoded[0] = std::byte{0x00};
  EXPECT_THROW(view_fragment(encoded), FormatError);
  EXPECT_THROW(decode_fragment_info(encoded), FormatError);
}

TEST(Fragment, EmptyPayloadRejected) {
  EXPECT_THROW(view_fragment(Bytes{}), FormatError);
}

TEST(Fragment, EmptyBoundingBoxSurvivesRoundTrip) {
  // A fragment of an empty batch: no points, so no bounding box.
  auto format = make_format(OrgKind::kGcsr);
  format->build(CoordBuffer(3), testing::fig1_shape());
  FragmentInfo info;
  info.org = OrgKind::kGcsr;
  info.shape = testing::fig1_shape();
  const OpenFragment opened = open_bytes(encode_fragment(info, *format, {}));
  EXPECT_TRUE(opened.bbox.empty());
  EXPECT_EQ(opened.point_count, 0u);
  EXPECT_EQ(opened.format->point_count(), 0u);
  EXPECT_TRUE(opened.values.empty());
}

TEST(Fragment, CompressedFragmentIsSmallerOnSortedIndex) {
  // LINEAR indexes are sorted-ish addresses: delta+varint should shrink
  // them substantially.
  auto format = make_format(OrgKind::kLinear);
  CoordBuffer coords(2);
  for (index_t i = 0; i < 512; ++i) coords.append({i, i});
  format->build(coords, Shape{512, 512});
  const std::vector<value_t> values(coords.size(), 1.0);

  FragmentInfo plain;
  plain.org = OrgKind::kLinear;
  plain.codec = CodecKind::kIdentity;
  plain.shape = Shape{512, 512};
  plain.bbox = Box::bounding(coords);
  plain.point_count = coords.size();
  FragmentInfo packed = plain;
  packed.codec = CodecKind::kDeltaVarint;
  EXPECT_LT(encode_fragment(packed, *format, values).size(),
            encode_fragment(plain, *format, values).size());
}

/// The fuzz seed corpus, written by make_seed_corpus from an earlier
/// build: one fragment per (organization, codec) pairing plus a zero-point
/// COO one. Every build must open them and write the same bytes back from
/// the opened index and values, so a change to the checksum, a codec or a
/// format's save() cannot silently strand files on disk.
TEST(FragmentCorpus, EverySeedDecodesAndReencodesToTheSameBytes) {
  const std::filesystem::path dir(ARTSPARSE_FRAGMENT_CORPUS_DIR);
  std::vector<std::string> names{"empty.asf"};
  for (const OrgKind org : all_org_kinds()) {
    for (const CodecKind codec : {CodecKind::kIdentity,
                                  CodecKind::kDeltaVarint, CodecKind::kRle}) {
      names.push_back(to_string(org) + "_" + to_string(codec) + ".asf");
    }
  }
  ASSERT_EQ(names.size(), 22u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const Bytes bytes = read_file((dir / name).string());
    const FragmentView view = view_fragment(bytes);
    const OpenFragment opened = open_fragment(view);
    EXPECT_EQ(opened.format->point_count(), opened.point_count);
    if (name == "empty.asf") {
      EXPECT_EQ(opened.point_count, 0u);
    } else {
      const std::string expected =
          to_string(opened.org) + "_" + to_string(view.info.codec) + ".asf";
      EXPECT_EQ(name, expected);
    }
    FragmentInfo info;
    info.org = opened.org;
    info.codec = view.info.codec;
    info.shape = opened.shape;
    info.bbox = opened.bbox;
    info.point_count = opened.point_count;
    EXPECT_EQ(encode_fragment(info, *opened.format, opened.values), bytes);
    EXPECT_EQ(info.index_bytes, view.info.index_bytes);
    EXPECT_EQ(info.value_count, view.info.value_count);
    EXPECT_EQ(info.value_min, view.info.value_min);
    EXPECT_EQ(info.value_max, view.info.value_max);
  }
}

}  // namespace
}  // namespace artsparse
