#include "storage/compress/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "storage/compress/codec_impl.hpp"

namespace artsparse {
namespace {

Bytes words_to_bytes(const std::vector<std::uint64_t>& words) {
  Bytes out(words.size() * sizeof(std::uint64_t));
  // memcpy with the null data() of an empty vector is undefined behaviour.
  if (!words.empty()) std::memcpy(out.data(), words.data(), out.size());
  return out;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecKind> {};

TEST_P(CodecRoundTrip, WordPayloads) {
  const auto codec = make_codec(GetParam());
  Xoshiro256 rng(31);
  for (std::size_t words : {0u, 1u, 7u, 256u}) {
    std::vector<std::uint64_t> payload(words);
    for (auto& w : payload) w = rng.next();
    const Bytes raw = words_to_bytes(payload);
    const Bytes decoded = codec->decode(codec->encode(raw));
    EXPECT_EQ(decoded, raw) << to_string(GetParam()) << " words=" << words;
  }
}

TEST_P(CodecRoundTrip, UnalignedPayloads) {
  // Fragment index buffers are not word-aligned (they carry u8 flags);
  // every codec must accept arbitrary byte lengths.
  const auto codec = make_codec(GetParam());
  Xoshiro256 rng(37);
  for (std::size_t size : {1u, 3u, 9u, 17u, 1025u}) {
    Bytes raw(size);
    for (auto& b : raw) b = static_cast<std::byte>(rng.next_below(256));
    EXPECT_EQ(codec->decode(codec->encode(raw)), raw)
        << to_string(GetParam()) << " size=" << size;
  }
}

TEST_P(CodecRoundTrip, SortedAddressPayload) {
  const auto codec = make_codec(GetParam());
  std::vector<std::uint64_t> addresses;
  for (std::uint64_t a = 100; a < 5000; a += 7) addresses.push_back(a);
  const Bytes raw = words_to_bytes(addresses);
  EXPECT_EQ(codec->decode(codec->encode(raw)), raw);
}

TEST_P(CodecRoundTrip, KindMatches) {
  EXPECT_EQ(make_codec(GetParam())->kind(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CodecKind::kIdentity,
                                           CodecKind::kDelta,
                                           CodecKind::kVarint,
                                           CodecKind::kRle,
                                           CodecKind::kDeltaVarint),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

TEST(DeltaCodec, EncodesSmallGapsAsSmallWords) {
  DeltaCodec codec;
  const Bytes raw = words_to_bytes({100, 101, 103, 106});
  const Bytes coded = codec.encode(raw);
  // Layout: zigzag words first, 1-byte tail length marker at the end.
  EXPECT_EQ(static_cast<std::size_t>(coded.back()), 0u);
  std::vector<std::uint64_t> words(4);
  std::memcpy(words.data(), coded.data(), words.size() * 8);
  // zigzag(100), zigzag(1), zigzag(2), zigzag(3)
  EXPECT_EQ(words[0], 200u);
  EXPECT_EQ(words[1], 2u);
  EXPECT_EQ(words[2], 4u);
  EXPECT_EQ(words[3], 6u);
}

TEST(DeltaCodec, HandlesDecreasingSequences) {
  DeltaCodec codec;
  const Bytes raw = words_to_bytes({50, 10, 40});
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

TEST(DeltaCodec, EmptyPayloadRejectedOnDecode) {
  DeltaCodec codec;
  EXPECT_TRUE(codec.decode(codec.encode(Bytes{})).empty());
  EXPECT_THROW(codec.decode(Bytes{}), FormatError);
}

TEST(VarintCodec, SmallWordsShrink) {
  VarintCodec codec;
  const Bytes raw = words_to_bytes({1, 2, 3, 4, 5, 6, 7, 8});
  const Bytes coded = codec.encode(raw);
  EXPECT_LT(coded.size(), raw.size());
}

TEST(VarintCodec, TruncatedPayloadRejected) {
  VarintCodec codec;
  const Bytes raw = words_to_bytes({1ull << 40});
  Bytes coded = codec.encode(raw);
  coded.pop_back();
  EXPECT_THROW(codec.decode(coded), FormatError);
}

TEST(RleCodec, ZeroRunsShrink) {
  RleCodec codec;
  const Bytes raw(4096, std::byte{0});
  const Bytes coded = codec.encode(raw);
  EXPECT_LT(coded.size(), raw.size() / 50);
  EXPECT_EQ(codec.decode(coded), raw);
}

TEST(RleCodec, ArbitraryBytesRoundTrip) {
  RleCodec codec;
  Xoshiro256 rng(17);
  Bytes raw(1001);  // deliberately not word-aligned
  for (auto& b : raw) b = static_cast<std::byte>(rng.next_below(4));
  EXPECT_EQ(codec.decode(codec.encode(raw)), raw);
}

TEST(DeltaVarint, SortedAddressesCompressWell) {
  const auto codec = make_codec(CodecKind::kDeltaVarint);
  std::vector<std::uint64_t> addresses;
  for (std::uint64_t a = 1u << 20; addresses.size() < 1000; a += 3) {
    addresses.push_back(a);
  }
  const Bytes raw = words_to_bytes(addresses);
  const Bytes coded = codec->encode(raw);
  // 8-byte words with tiny deltas become ~1 byte each.
  EXPECT_LT(coded.size(), raw.size() / 4);
  EXPECT_EQ(codec->decode(coded), raw);
}

TEST(Codec, Names) {
  EXPECT_EQ(to_string(CodecKind::kIdentity), "identity");
  EXPECT_EQ(to_string(CodecKind::kDeltaVarint), "delta+varint");
}

}  // namespace
}  // namespace artsparse
