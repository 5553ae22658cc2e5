#include "storage/fragment.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "formats/registry.hpp"
#include "storage/file_io.hpp"
#include "test_support.hpp"

namespace artsparse {
namespace {

Fragment sample_fragment(CodecKind codec = CodecKind::kIdentity) {
  auto format = make_format(OrgKind::kGcsr);
  const CoordBuffer coords = testing::fig1_coords();
  format->build(coords, testing::fig1_shape());

  Fragment fragment;
  fragment.org = OrgKind::kGcsr;
  fragment.codec = codec;
  fragment.shape = testing::fig1_shape();
  fragment.bbox = Box::bounding(coords);
  fragment.point_count = coords.size();
  fragment.index = serialize_format(*format);
  fragment.values = testing::fig1_values();
  return fragment;
}

TEST(Fragment, EncodeDecodeRoundTrip) {
  const Fragment original = sample_fragment();
  const Bytes encoded = encode_fragment(original);
  const Fragment decoded = decode_fragment(encoded);

  EXPECT_EQ(decoded.org, original.org);
  EXPECT_EQ(decoded.codec, original.codec);
  EXPECT_EQ(decoded.shape, original.shape);
  EXPECT_EQ(decoded.bbox, original.bbox);
  EXPECT_EQ(decoded.point_count, original.point_count);
  EXPECT_EQ(decoded.index, original.index);
  EXPECT_EQ(decoded.values, original.values);
}

TEST(Fragment, DecodedIndexReconstructsFormat) {
  const Bytes encoded = encode_fragment(sample_fragment());
  const Fragment decoded = decode_fragment(encoded);
  auto format = load_format(decoded.org, decoded.index);
  const CoordBuffer coords = testing::fig1_coords();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_NE(format->lookup(coords.point(i)), kNotFound);
  }
}

TEST(Fragment, RoundTripWithEveryCodec) {
  for (CodecKind codec :
       {CodecKind::kIdentity, CodecKind::kDelta, CodecKind::kVarint,
        CodecKind::kRle, CodecKind::kDeltaVarint}) {
    const Fragment original = sample_fragment(codec);
    const Fragment decoded = decode_fragment(encode_fragment(original));
    EXPECT_EQ(decoded.index, original.index) << to_string(codec);
    EXPECT_EQ(decoded.values, original.values) << to_string(codec);
  }
}

TEST(Fragment, HeaderOnlyDecode) {
  const Bytes encoded = encode_fragment(sample_fragment());
  const FragmentInfo info = decode_fragment_info(encoded);
  EXPECT_EQ(info.org, OrgKind::kGcsr);
  EXPECT_EQ(info.shape, testing::fig1_shape());
  EXPECT_EQ(info.point_count, 5u);
  EXPECT_EQ(info.value_count, 5u);
  EXPECT_EQ(info.bbox, Box({0, 0, 1}, {2, 2, 2}));
}

TEST(Fragment, CorruptionDetectedByChecksum) {
  Bytes encoded = encode_fragment(sample_fragment());
  encoded[encoded.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW(decode_fragment(encoded), FormatError);
}

TEST(Fragment, TruncationRejected) {
  Bytes encoded = encode_fragment(sample_fragment());
  encoded.resize(encoded.size() - 16);
  EXPECT_THROW(decode_fragment(encoded), FormatError);
}

TEST(Fragment, BadMagicRejected) {
  Bytes encoded = encode_fragment(sample_fragment());
  encoded[0] = std::byte{0x00};
  EXPECT_THROW(decode_fragment(encoded), FormatError);
  EXPECT_THROW(decode_fragment_info(encoded), FormatError);
}

TEST(Fragment, EmptyPayloadRejected) {
  EXPECT_THROW(decode_fragment(Bytes{}), FormatError);
}

TEST(Fragment, EmptyBoundingBoxSurvivesRoundTrip) {
  Fragment fragment = sample_fragment();
  fragment.bbox = Box();  // empty fragment written before any points
  fragment.point_count = 0;
  fragment.values.clear();
  const Fragment decoded = decode_fragment(encode_fragment(fragment));
  EXPECT_TRUE(decoded.bbox.empty());
}

TEST(Fragment, CompressedFragmentIsSmallerOnSortedIndex) {
  // LINEAR indexes are sorted-ish addresses: delta+varint should shrink
  // them substantially.
  auto format = make_format(OrgKind::kLinear);
  CoordBuffer coords(2);
  for (index_t i = 0; i < 512; ++i) coords.append({i, i});
  format->build(coords, Shape{512, 512});

  Fragment plain;
  plain.org = OrgKind::kLinear;
  plain.codec = CodecKind::kIdentity;
  plain.shape = Shape{512, 512};
  plain.bbox = Box::bounding(coords);
  plain.point_count = coords.size();
  plain.index = serialize_format(*format);
  plain.values.assign(coords.size(), 1.0);

  Fragment packed = plain;
  packed.codec = CodecKind::kDeltaVarint;
  EXPECT_LT(encode_fragment(packed).size(), encode_fragment(plain).size());
}

/// The fuzz seed corpus, written by make_seed_corpus from an earlier
/// build: one fragment per (organization, codec) pairing plus an empty one.
/// Every build must read them and write the same bytes back, so a change
/// to the checksum or a codec cannot silently strand files on disk.
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
    const Fragment fragment = decode_fragment(bytes);
    EXPECT_EQ(encode_fragment(fragment), bytes);
    if (name == "empty.asf") continue;
    EXPECT_EQ(name, to_string(fragment.org) + "_" +
                        to_string(fragment.codec) + ".asf");
    EXPECT_EQ(load_format(fragment.org, fragment.index)->point_count(),
              fragment.point_count);
  }
}

/// The write path encodes from the built format and the value span, not
/// from a Fragment: it must write the corpus bytes too.
TEST(FragmentCorpus, EverySeedReencodesFromItsLoadedFormatToTheSameBytes) {
  const std::filesystem::path dir(ARTSPARSE_FRAGMENT_CORPUS_DIR);
  for (const OrgKind org : all_org_kinds()) {
    for (const CodecKind codec : {CodecKind::kIdentity,
                                  CodecKind::kDeltaVarint, CodecKind::kRle}) {
      const std::string name =
          to_string(org) + "_" + to_string(codec) + ".asf";
      SCOPED_TRACE(name);
      const Bytes bytes = read_file((dir / name).string());
      const Fragment fragment = decode_fragment(bytes);
      const auto format = load_format(fragment.org, fragment.index);
      FragmentInfo info;
      info.org = fragment.org;
      info.codec = fragment.codec;
      info.shape = fragment.shape;
      info.bbox = fragment.bbox;
      info.point_count = fragment.point_count;
      EXPECT_EQ(encode_fragment(info, *format, fragment.values), bytes);
      const FragmentInfo stored = decode_fragment_info(bytes);
      EXPECT_EQ(info.index_bytes, stored.index_bytes);
      EXPECT_EQ(info.value_count, stored.value_count);
      EXPECT_EQ(info.value_min, stored.value_min);
      EXPECT_EQ(info.value_max, stored.value_max);
    }
  }
}

}  // namespace
}  // namespace artsparse
