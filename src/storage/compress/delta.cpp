#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "storage/compress/codec_impl.hpp"

namespace artsparse {

// Layout: [zigzag-delta u64 words][raw tail bytes][tail_len u8]. The tail
// (0-7 bytes) carries whatever does not fill a whole word, so the codec
// accepts arbitrary byte buffers (fragment indexes are not word-aligned).
// The marker sits at the *end* so the delta words stay 8-byte aligned at
// offset 0 — that keeps a downstream varint stage seeing whole small words
// (the delta+varint pipeline relies on this).

namespace {

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

std::uint64_t load_word(const std::byte* data, std::size_t i) {
  std::uint64_t w;
  std::memcpy(&w, data + i * sizeof(w), sizeof(w));
  return w;
}

void store_word(std::byte* data, std::size_t i, std::uint64_t w) {
  std::memcpy(data + i * sizeof(w), &w, sizeof(w));
}

}  // namespace

Bytes DeltaCodec::encode(std::span<const std::byte> raw) const {
  const std::size_t words = raw.size() / sizeof(std::uint64_t);
  const std::size_t tail = raw.size() % sizeof(std::uint64_t);
  Bytes out(raw.size() + 1);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t cur = load_word(raw.data(), i);
    // Differences are taken modulo 2^64; zigzag keeps small +/- deltas small.
    store_word(out.data(), i, zigzag(static_cast<std::int64_t>(cur - prev)));
    prev = cur;
  }
  std::copy(raw.end() - tail, raw.end(), out.end() - 1 - tail);
  out.back() = static_cast<std::byte>(tail);
  return out;
}

Bytes DeltaCodec::decode(std::span<const std::byte> coded) const {
  Bytes out(coded.begin(), coded.end());
  decode_in_place(out);
  return out;
}

void DeltaCodec::decode_in_place(Bytes& buf) {
  detail::require(!buf.empty(), "delta payload truncated");
  const auto tail = static_cast<std::size_t>(buf.back());
  detail::require(tail < sizeof(std::uint64_t), "delta tail length invalid");
  detail::require(buf.size() >= 1 + tail, "delta payload truncated");
  const std::size_t body = buf.size() - 1 - tail;
  detail::require(body % sizeof(std::uint64_t) == 0,
                  "delta payload body must be whole u64 words");
  const std::size_t words = body / sizeof(std::uint64_t);

  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < words; ++i) {
    prev += static_cast<std::uint64_t>(unzigzag(load_word(buf.data(), i)));
    store_word(buf.data(), i, prev);
  }
  buf.pop_back();  // the tail bytes already sit right after the words
}

}  // namespace artsparse
