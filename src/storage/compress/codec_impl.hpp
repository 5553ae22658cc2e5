// Concrete codec classes. Internal header — library users go through
// make_codec(); these types are exposed for unit tests.
#pragma once

#include "storage/compress/codec.hpp"

namespace artsparse {

class IdentityCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kIdentity; }
  Bytes encode(std::span<const std::byte> raw) const override;
  Bytes decode(std::span<const std::byte> coded) const override;
};

/// Zigzag-delta over little-endian u64 words: word[0] verbatim, then
/// zigzag(word[i] - word[i-1]). Sorted address arrays become small values.
class DeltaCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kDelta; }
  Bytes encode(std::span<const std::byte> raw) const override;
  Bytes decode(std::span<const std::byte> coded) const override;

  /// decode() within `buf`: the decoded bytes are a prefix of the coded
  /// ones, so the words are un-deltaed where they lie and the marker byte
  /// is dropped.
  static void decode_in_place(Bytes& buf);
};

/// LEB128 varint over u64 words, with a word-count prefix.
class VarintCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kVarint; }
  Bytes encode(std::span<const std::byte> raw) const override;
  Bytes decode(std::span<const std::byte> coded) const override;
};

/// Byte-level run-length encoding: (count u8, value u8) pairs with a raw
/// length prefix. Wins on long zero runs (row_ptr of empty rows).
class RleCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kRle; }
  Bytes encode(std::span<const std::byte> raw) const override;
  Bytes decode(std::span<const std::byte> coded) const override;
};

/// Delta, then varint: the useful pipeline for sorted address/index
/// arrays. The bytes are exactly VarintCodec(DeltaCodec(raw)); decode
/// builds one buffer and un-deltas it in place.
class DeltaVarintCodec final : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kDeltaVarint; }
  Bytes encode(std::span<const std::byte> raw) const override;
  Bytes decode(std::span<const std::byte> coded) const override;
};

}  // namespace artsparse
