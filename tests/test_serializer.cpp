#include "storage/serializer.hpp"

#include <gtest/gtest.h>

#include <cstring>

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
  const std::span<const std::byte> real_bytes =
      reader.view_vec_bytes(sizeof(double));
  std::vector<double> reals(real_bytes.size() / sizeof(double));
  std::memcpy(reals.data(), real_bytes.data(), real_bytes.size());
  EXPECT_EQ(reals, doubles);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serializer, EmptyVectorRoundTrip) {
  BufferWriter writer;
  writer.put_u64_vec({});
  BufferReader reader(writer.bytes());
  EXPECT_TRUE(reader.get_u64_vec().empty());
}

TEST(Serializer, RawBytesPassThrough) {
  BufferWriter writer;
  const Bytes payload{std::byte{1}, std::byte{2}, std::byte{3}};
  writer.put_bytes(payload);
  BufferReader reader(writer.bytes());
  const std::span<const std::byte> view = reader.view_bytes(3);
  EXPECT_EQ(Bytes(view.begin(), view.end()), payload);
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
  EXPECT_THROW(reader.view_bytes(2), FormatError);
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

TEST(Serializer, SizerCountsWhatAWriterWrites) {
  const std::vector<std::uint64_t> words{1, 2, 3};
  const std::vector<double> reals{0.5};
  const Bytes tail{std::byte{'a'}, std::byte{'b'}, std::byte{'c'}};
  const auto put_all = [&](BufferWriter& out) {
    out.put_u8(7);
    out.put_u32(8);
    out.put_u64_vec(words);
    out.put_f64_vec(reals);
    out.put_bytes(tail);
  };
  BufferWriter sizer = BufferWriter::sizer();
  put_all(sizer);
  BufferWriter writer(sizer.size());
  put_all(writer);
  EXPECT_EQ(sizer.size(), writer.size());
  EXPECT_EQ(sizer.size(), 1u + 4u + (8u + 24u) + (8u + 8u) + 3u);
  EXPECT_TRUE(sizer.bytes().empty());
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

/// Checks `kernel` against the bitwise reference at every length 0-600 and
/// every start offset 0-15: the CLMUL kernel's 64-byte folds, its 16-byte
/// finish and every tail, at every alignment of its 16-byte loads.
void expect_kernel_matches_reference(
    std::uint32_t (*kernel)(std::span<const std::byte>)) {
  const Bytes data = random_bytes(600 + 16, 13);
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 600; ++length) {
      const auto bytes =
          std::span<const std::byte>(data).subspan(offset, length);
      if (kernel(bytes) != reference_crc32(bytes) && mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at offset " << offset << " length "
                      << length;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Crc32, Slice8KernelMatchesReferenceAtEveryLengthAndOffset) {
  expect_kernel_matches_reference(detail::crc32_slice8);
}

TEST(Crc32, ClmulKernelMatchesReferenceAtEveryLengthAndOffset) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "this CPU has no carry-less multiply";
  }
  expect_kernel_matches_reference(detail::crc32_clmul);
}

TEST(Crc32, BothKernelsMatchReferenceOnThirteenMebibytes) {
  // About one paper_grid set-up's worth of fragment bytes, and not a
  // multiple of the 64-byte fold.
  const Bytes data = random_bytes((std::size_t{13} << 20) + 37, 14);
  const std::uint32_t expected = reference_crc32(data);
  EXPECT_EQ(detail::crc32_slice8(data), expected);
  EXPECT_EQ(crc32(data), expected);
  if (detail::crc32_clmul_supported()) {
    EXPECT_EQ(detail::crc32_clmul(data), expected);
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data(64, std::byte{0x5a});
  const std::uint32_t original = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), original);
}

}  // namespace
}  // namespace artsparse
