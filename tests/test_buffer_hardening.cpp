// Regression tests for unchecked size arithmetic in the untrusted
// deserialization path: hostile 64-bit length prefixes must fail the bounds
// check *before* any narrowing, multiplication, or allocation. The constants
// below are the classic wrap patterns (n * 8 overflowing to a small value,
// and lengths that only truncate on a 32-bit size_t).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/error.hpp"
#include "storage/compress/codec.hpp"
#include "storage/serializer.hpp"

namespace artsparse {
namespace {

Bytes with_u64_prefix(std::uint64_t prefix, std::size_t payload = 16) {
  BufferWriter writer;
  writer.put_u64(prefix);
  for (std::size_t i = 0; i < payload; ++i) {
    writer.put_u8(0);
  }
  return writer.take();
}

TEST(BufferHardening, VectorLengthTimesElementSizeCannotWrap) {
  // 0x2000000000000001 * 8 wraps to 8 on u64 arithmetic — a naive
  // `n * sizeof(T) <= remaining()` check would accept it and then copy
  // far past the buffer.
  for (std::uint64_t evil :
       {std::uint64_t{0x2000000000000001}, std::uint64_t{0x4000000000000001},
        std::numeric_limits<std::uint64_t>::max() / 8 + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    const Bytes data = with_u64_prefix(evil);
    BufferReader u64_reader(data);
    EXPECT_THROW(u64_reader.get_u64_vec(), FormatError) << evil;
    BufferReader f64_reader(data);
    EXPECT_THROW(f64_reader.view_vec_bytes(sizeof(double)), FormatError)
        << evil;
  }
}

TEST(BufferHardening, HugeStringLengthIsRejectedWithoutAllocating) {
  const Bytes data =
      with_u64_prefix(std::numeric_limits<std::uint64_t>::max());
  BufferReader reader(data);
  EXPECT_THROW(reader.view_vec_bytes(1), FormatError);
}

TEST(BufferHardening, GetBytesChecksU64BeforeNarrowing) {
  const Bytes data(64, std::byte{0});
  // On a 32-bit size_t, 1 << 32 would narrow to 0 and "succeed"; the u64
  // comparison must reject it first.
  for (std::uint64_t evil :
       {std::uint64_t{1} << 32, (std::uint64_t{1} << 32) + 8,
        std::numeric_limits<std::uint64_t>::max(), std::uint64_t{65}}) {
    BufferReader reader(data);
    EXPECT_THROW(reader.view_bytes(evil), FormatError) << evil;
  }
  BufferReader reader(data);
  EXPECT_EQ(reader.view_bytes(64).size(), 64u);
}

TEST(BufferHardening, VectorLengthJustPastBufferIsRejected) {
  const Bytes data = with_u64_prefix(3, 2 * sizeof(std::uint64_t));
  BufferReader reader(data);
  EXPECT_THROW(reader.get_u64_vec(), FormatError);
  const Bytes exact = with_u64_prefix(2, 2 * sizeof(std::uint64_t));
  BufferReader ok_reader(exact);
  EXPECT_EQ(ok_reader.get_u64_vec().size(), 2u);
  EXPECT_TRUE(ok_reader.exhausted());
}

TEST(BufferHardening, RleRejectsImplausiblyLargeDecodedSize) {
  // An RLE stream of k pairs can decode to at most 255 * k elements; a
  // header claiming more must be rejected before the output allocation.
  BufferWriter writer;
  writer.put_u64(std::numeric_limits<std::uint64_t>::max());
  writer.put_u8(1);  // one (count, delta-byte) pair
  writer.put_u8(0);
  const Bytes coded = writer.take();
  auto codec = make_codec(CodecKind::kRle);
  EXPECT_THROW(codec->decode(coded), FormatError);
}

TEST(BufferHardening, TruncatedPrimitiveReadsThrow) {
  const Bytes data(3, std::byte{0});
  BufferReader r1(data);
  EXPECT_THROW(r1.get_u64(), FormatError);
  BufferReader r2(data);
  EXPECT_THROW(r2.get_u32(), FormatError);
  BufferReader r3(data);
  EXPECT_THROW(r3.get_f64(), FormatError);
  BufferReader r4(data);
  r4.get_u8();
  r4.get_u8();
  r4.get_u8();
  EXPECT_TRUE(r4.exhausted());
  EXPECT_THROW(r4.get_u8(), FormatError);
}

}  // namespace
}  // namespace artsparse
