#include "storage/compress/codec.hpp"

#include "core/error.hpp"
#include "storage/compress/codec_impl.hpp"

namespace artsparse {

std::string to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity:
      return "identity";
    case CodecKind::kDelta:
      return "delta";
    case CodecKind::kVarint:
      return "varint";
    case CodecKind::kRle:
      return "rle";
    case CodecKind::kDeltaVarint:
      return "delta+varint";
  }
  throw FormatError("unknown CodecKind value");
}

std::unique_ptr<Codec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity:
      return std::make_unique<IdentityCodec>();
    case CodecKind::kDelta:
      return std::make_unique<DeltaCodec>();
    case CodecKind::kVarint:
      return std::make_unique<VarintCodec>();
    case CodecKind::kRle:
      return std::make_unique<RleCodec>();
    case CodecKind::kDeltaVarint:
      return std::make_unique<DeltaVarintCodec>();
  }
  throw FormatError("unknown CodecKind value");
}

Bytes DeltaVarintCodec::encode(std::span<const std::byte> raw) const {
  return VarintCodec().encode(DeltaCodec().encode(raw));
}

Bytes DeltaVarintCodec::decode(std::span<const std::byte> coded) const {
  Bytes out = VarintCodec().decode(coded);
  DeltaCodec::decode_in_place(out);
  return out;
}

}  // namespace artsparse
