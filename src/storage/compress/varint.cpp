#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "storage/compress/codec_impl.hpp"

namespace artsparse {

// Layout: [tail_len u8][word count varint][LEB128 words][raw tail bytes].
// Like DeltaCodec, arbitrary byte lengths are accepted: 0-7 trailing bytes
// ride along uncompressed.

namespace {

/// A u64 takes at most ceil(64 / 7) LEB128 bytes.
constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` at `out` and returns the byte after it.
std::byte* put_varint(std::byte* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::byte>(v);
  return out;
}

std::uint64_t get_varint(std::span<const std::byte> data,
                         std::size_t& offset, std::size_t limit) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    detail::require(offset < limit, "varint payload truncated");
    detail::require(shift < 64, "varint too long");
    const auto b = static_cast<std::uint8_t>(data[offset++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

}  // namespace

Bytes VarintCodec::encode(std::span<const std::byte> raw) const {
  const std::size_t words = raw.size() / sizeof(std::uint64_t);
  const std::size_t tail = raw.size() % sizeof(std::uint64_t);
  // Sized for the worst case once, then trimmed to what was written.
  Bytes out(1 + (words + 1) * kMaxVarintBytes + tail);
  out[0] = static_cast<std::byte>(tail);
  std::byte* end = put_varint(out.data() + 1, words);
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, raw.data() + i * sizeof(w), sizeof(w));
    end = put_varint(end, w);
  }
  end = std::copy(raw.end() - tail, raw.end(), end);
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

Bytes VarintCodec::decode(std::span<const std::byte> coded) const {
  detail::require(!coded.empty(), "varint payload truncated");
  const auto tail = static_cast<std::size_t>(coded[0]);
  detail::require(tail < sizeof(std::uint64_t),
                  "varint tail length invalid");
  detail::require(coded.size() >= 1 + tail, "varint payload truncated");
  const std::size_t limit = coded.size() - tail;

  std::size_t offset = 1;
  const std::uint64_t words = get_varint(coded, offset, limit);
  detail::require(words <= coded.size(),  // each word needs >= 1 input byte
                  "varint word count exceeds payload size");
  Bytes out(words * sizeof(std::uint64_t) + tail);
  std::byte* word_out = out.data();
  for (std::uint64_t i = 0; i < words; ++i) {
    const std::uint64_t w = get_varint(coded, offset, limit);
    std::memcpy(word_out, &w, sizeof(w));
    word_out += sizeof(w);
  }
  detail::require(offset == limit, "varint payload has trailing bytes");
  std::copy(coded.end() - tail, coded.end(), word_out);
  return out;
}

}  // namespace artsparse
