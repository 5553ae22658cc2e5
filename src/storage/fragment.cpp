#include "storage/fragment.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "formats/format.hpp"
#include "storage/serializer.hpp"

namespace artsparse {

namespace {

/// Reads the header fields shared by view_fragment and
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

/// read_header()'s inverse.
void write_header(BufferWriter& writer, const FragmentInfo& info) {
  writer.put_u32(kFragmentMagic);
  writer.put_u32(kFragmentVersion);
  writer.put_u8(static_cast<std::uint8_t>(info.org));
  writer.put_u8(static_cast<std::uint8_t>(info.codec));
  writer.put_u64_vec(info.shape.extents());
  writer.put_u8(info.bbox.empty() ? 0 : 1);
  if (!info.bbox.empty()) {
    writer.put_u64_vec(info.bbox.lo());
    writer.put_u64_vec(info.bbox.hi());
  }
  writer.put_u64(info.point_count);
  writer.put_u64(info.index_bytes);
  writer.put_u64(info.value_count);
  writer.put_f64(info.value_min);
  writer.put_f64(info.value_max);
}

/// The one encode path. `put_index` appends the stored index section,
/// exactly info.index_bytes long; the header, values and checksum go
/// around it in a writer reserved to the file's length.
template <typename PutIndex>
Bytes encode_sections(FragmentInfo& info, std::span<const value_t> values,
                      PutIndex&& put_index) {
  // Statistics block, recomputed so hand-built fragments stay consistent.
  info.value_count = values.size();
  info.value_min = 0;
  info.value_max = 0;
  if (!values.empty()) {
    const auto [min_it, max_it] =
        std::minmax_element(values.begin(), values.end());
    info.value_min = *min_it;
    info.value_max = *max_it;
  }
  BufferWriter header = BufferWriter::sizer();
  write_header(header, info);
  BufferWriter writer(header.size() + info.index_bytes +
                      sizeof(std::uint64_t) + values.size_bytes() +
                      sizeof(std::uint32_t));
  write_header(writer, info);
  put_index(writer);
  writer.put_f64_vec(values);
  // Checksum covers everything before it.
  writer.put_u32(crc32(writer.bytes()));
  return writer.take();
}

/// encode_sections() for a codec other than identity, from the raw index.
Bytes encode_coded(FragmentInfo& info, std::span<const std::byte> index,
                   std::span<const value_t> values) {
  const Bytes coded = make_codec(info.codec)->encode(index);
  info.index_bytes = coded.size();
  return encode_sections(info, values,
                         [&](BufferWriter& out) { out.put_bytes(coded); });
}

}  // namespace

std::vector<value_t> FragmentView::copy_values() const {
  std::vector<value_t> out(values.size() / sizeof(value_t));
  if (!out.empty()) std::memcpy(out.data(), values.data(), values.size());
  return out;
}

Bytes encode_fragment(const Fragment& fragment) {
  FragmentInfo info;
  info.org = fragment.org;
  info.codec = fragment.codec;
  info.shape = fragment.shape;
  info.bbox = fragment.bbox;
  info.point_count = fragment.point_count;
  if (info.codec != CodecKind::kIdentity) {
    return encode_coded(info, fragment.index, fragment.values);
  }
  info.index_bytes = fragment.index.size();
  return encode_sections(info, fragment.values, [&](BufferWriter& out) {
    out.put_bytes(fragment.index);
  });
}

Bytes encode_fragment(FragmentInfo& info, const SparseFormat& format,
                      std::span<const value_t> values) {
  if (info.codec != CodecKind::kIdentity) {
    return encode_coded(info, serialize_format(format), values);
  }
  BufferWriter sizer = BufferWriter::sizer();
  format.save(sizer);
  info.index_bytes = sizer.size();
  return encode_sections(info, values,
                         [&](BufferWriter& out) { format.save(out); });
}

FragmentView view_fragment(std::span<const std::byte> data) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  const std::size_t body_size = data.size() - sizeof(std::uint32_t);

  // Verify the trailing checksum before trusting any lengths.
  BufferReader crc_reader(data.subspan(body_size));
  const std::uint32_t stored_crc = crc_reader.get_u32();
  detail::require(crc32(data.subspan(0, body_size)) == stored_crc,
                  "fragment checksum mismatch (corrupt file)");

  BufferReader reader(data.subspan(0, body_size));
  FragmentView view;
  view.info = read_header(reader);
  view.index = reader.view_bytes(view.info.index_bytes);
  view.values = reader.view_vec_bytes(sizeof(value_t));
  detail::require(view.values.size() / sizeof(value_t) ==
                      view.info.value_count,
                  "fragment value count mismatch");
  detail::require(reader.exhausted(), "fragment has trailing bytes");
  return view;
}

Fragment decode_fragment(std::span<const std::byte> data) {
  const FragmentView view = view_fragment(data);
  Fragment fragment;
  fragment.org = view.info.org;
  fragment.codec = view.info.codec;
  fragment.shape = view.info.shape;
  fragment.bbox = view.info.bbox;
  fragment.point_count = view.info.point_count;
  fragment.value_min = view.info.value_min;
  fragment.value_max = view.info.value_max;
  fragment.index = make_codec(view.info.codec)->decode(view.index);
  fragment.values = view.copy_values();
  return fragment;
}

FragmentInfo decode_fragment_info(std::span<const std::byte> data) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  BufferReader reader(data.subspan(0, data.size() - sizeof(std::uint32_t)));
  return read_header(reader);
}

}  // namespace artsparse
