#include "storage/serializer.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace artsparse {
namespace {

TEST(Serializer, PrimitiveRoundTrip) {
  BufferWriter writer;
  writer.put_u8(0xab);
  writer.put_u32(0xdeadbeef);
  writer.put_u64(0x0123456789abcdefULL);
  writer.put_f64(3.5);
  const Bytes bytes = writer.take();

  BufferReader reader(bytes);
  EXPECT_EQ(reader.get_u8(), 0xab);
  EXPECT_EQ(reader.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.get_f64(), 3.5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serializer, VectorRoundTrip) {
  BufferWriter writer;
  const std::vector<std::uint64_t> ints{1, 2, 3};
  const std::vector<double> doubles{1.5, -2.5};
  writer.put_u64_vec(ints);
  writer.put_f64_vec(doubles);
  const Bytes bytes = writer.take();

  BufferReader reader(bytes);
  EXPECT_EQ(reader.get_u64_vec(), ints);
  EXPECT_EQ(reader.get_f64_vec(), doubles);
}

TEST(Serializer, EmptyVectorRoundTrip) {
  BufferWriter writer;
  writer.put_u64_vec({});
  BufferReader reader(writer.bytes());
  EXPECT_TRUE(reader.get_u64_vec().empty());
}

TEST(Serializer, StringRoundTrip) {
  BufferWriter writer;
  writer.put_string("hello, tensors");
  writer.put_string("");
  BufferReader reader(writer.bytes());
  EXPECT_EQ(reader.get_string(), "hello, tensors");
  EXPECT_EQ(reader.get_string(), "");
}

TEST(Serializer, RawBytesPassThrough) {
  BufferWriter writer;
  const Bytes payload{std::byte{1}, std::byte{2}, std::byte{3}};
  writer.put_bytes(payload);
  BufferReader reader(writer.bytes());
  EXPECT_EQ(reader.get_bytes(3), payload);
}

TEST(Serializer, TruncatedPrimitiveRejected) {
  BufferWriter writer;
  writer.put_u8(1);
  BufferReader reader(writer.bytes());
  EXPECT_THROW(reader.get_u64(), FormatError);
}

TEST(Serializer, HostileVectorLengthRejected) {
  // A length prefix claiming more elements than the buffer holds must not
  // trigger a giant allocation.
  BufferWriter writer;
  writer.put_u64(1ull << 60);
  BufferReader reader(writer.bytes());
  EXPECT_THROW(reader.get_u64_vec(), FormatError);
}

TEST(Serializer, GetBytesBeyondEndRejected) {
  BufferWriter writer;
  writer.put_u8(1);
  BufferReader reader(writer.bytes());
  EXPECT_THROW(reader.get_bytes(2), FormatError);
}

TEST(Serializer, OffsetTracksReads) {
  BufferWriter writer;
  writer.put_u32(0);
  writer.put_u32(0);
  BufferReader reader(writer.bytes());
  EXPECT_EQ(reader.offset(), 0u);
  reader.get_u32();
  EXPECT_EQ(reader.offset(), 4u);
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(Crc32, KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  EXPECT_EQ(crc32(std::span<const std::byte>(p, s.size())), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

/// Bitwise CRC-32 straight from the polynomial: the reference that the
/// library's table-driven crc32 must match.
std::uint32_t reference_crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::byte b : data) {
    crc ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xffffffffu;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes data(n);
  for (std::byte& b : data) b = static_cast<std::byte>(rng.next_below(256));
  return data;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover empty, tail-only, and whole 8-byte steps plus
  // every tail; offsets 0-7 cover every alignment of the 8-byte loads.
  const Bytes data = random_bytes(64 + 8, 11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const auto bytes =
          std::span<const std::byte>(data).subspan(offset, length);
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnOneMebibyte) {
  const Bytes data = random_bytes(std::size_t{1} << 20, 12);
  EXPECT_EQ(crc32(data), reference_crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data(64, std::byte{0x5a});
  const std::uint32_t original = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), original);
}

}  // namespace
}  // namespace artsparse
