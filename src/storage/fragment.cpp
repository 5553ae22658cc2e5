#include "storage/fragment.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "storage/serializer.hpp"

namespace artsparse {

namespace {

/// Reads the header fields shared by decode_fragment and
/// decode_fragment_info; on return the reader is positioned at the index
/// section.
FragmentInfo read_header(BufferReader& reader) {
  detail::require(reader.get_u32() == kFragmentMagic,
                  "not a fragment file (bad magic)");
  detail::require(reader.get_u32() == kFragmentVersion,
                  "unsupported fragment version");
  FragmentInfo info;
  info.org = static_cast<OrgKind>(reader.get_u8());
  detail::require(static_cast<std::uint8_t>(info.org) <=
                      static_cast<std::uint8_t>(OrgKind::kBcsr),
                  "fragment has unknown organization kind");
  info.codec = static_cast<CodecKind>(reader.get_u8());
  detail::require(static_cast<std::uint8_t>(info.codec) <=
                      static_cast<std::uint8_t>(CodecKind::kDeltaVarint),
                  "fragment has unknown codec kind");
  info.shape = Shape(reader.get_u64_vec());
  if (reader.get_u8() != 0) {
    auto lo = reader.get_u64_vec();
    auto hi = reader.get_u64_vec();
    info.bbox = Box(std::move(lo), std::move(hi));
  }
  info.point_count = reader.get_u64();
  info.index_bytes = reader.get_u64();
  info.value_count = reader.get_u64();
  info.value_min = reader.get_f64();
  info.value_max = reader.get_f64();
  return info;
}

}  // namespace

Bytes encode_fragment(const Fragment& fragment) {
  const auto codec = make_codec(fragment.codec);
  const Bytes coded_index = codec->encode(fragment.index);

  BufferWriter writer;
  writer.put_u32(kFragmentMagic);
  writer.put_u32(kFragmentVersion);
  writer.put_u8(static_cast<std::uint8_t>(fragment.org));
  writer.put_u8(static_cast<std::uint8_t>(fragment.codec));
  writer.put_u64_vec(fragment.shape.extents());
  writer.put_u8(fragment.bbox.empty() ? 0 : 1);
  if (!fragment.bbox.empty()) {
    writer.put_u64_vec(fragment.bbox.lo());
    writer.put_u64_vec(fragment.bbox.hi());
  }
  writer.put_u64(fragment.point_count);
  writer.put_u64(coded_index.size());
  writer.put_u64(fragment.values.size());
  // Statistics block, recomputed so hand-built fragments stay consistent.
  value_t lo = 0;
  value_t hi = 0;
  if (!fragment.values.empty()) {
    const auto [min_it, max_it] =
        std::minmax_element(fragment.values.begin(), fragment.values.end());
    lo = *min_it;
    hi = *max_it;
  }
  writer.put_f64(lo);
  writer.put_f64(hi);
  writer.put_bytes(coded_index);
  writer.put_f64_vec(fragment.values);

  // Checksum covers everything before it.
  const std::uint32_t checksum = crc32(writer.bytes());
  writer.put_u32(checksum);
  return writer.take();
}

Fragment decode_fragment(std::span<const std::byte> data) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  const std::size_t body_size = data.size() - sizeof(std::uint32_t);

  // Verify the trailing checksum before trusting any lengths.
  BufferReader crc_reader(data.subspan(body_size));
  const std::uint32_t stored_crc = crc_reader.get_u32();
  detail::require(crc32(data.subspan(0, body_size)) == stored_crc,
                  "fragment checksum mismatch (corrupt file)");

  BufferReader reader(data.subspan(0, body_size));
  const FragmentInfo info = read_header(reader);

  Fragment fragment;
  fragment.org = info.org;
  fragment.codec = info.codec;
  fragment.shape = info.shape;
  fragment.bbox = info.bbox;
  fragment.point_count = info.point_count;
  fragment.value_min = info.value_min;
  fragment.value_max = info.value_max;

  const auto codec = make_codec(info.codec);
  fragment.index = codec->decode(reader.view_bytes(info.index_bytes));
  fragment.values = reader.get_f64_vec();
  detail::require(fragment.values.size() == info.value_count,
                  "fragment value count mismatch");
  detail::require(reader.exhausted(), "fragment has trailing bytes");
  return fragment;
}

FragmentInfo decode_fragment_info(std::span<const std::byte> data) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  BufferReader reader(data.subspan(0, data.size() - sizeof(std::uint32_t)));
  return read_header(reader);
}

}  // namespace artsparse
