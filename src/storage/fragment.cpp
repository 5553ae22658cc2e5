#include "storage/fragment.hpp"

#include <algorithm>

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
  if (reader.get_flag()) {
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
  // Statistics block, computed from the values written.
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

}  // namespace

Bytes encode_fragment(FragmentInfo& info, const SparseFormat& format,
                      std::span<const value_t> values) {
  if (info.codec != CodecKind::kIdentity) {
    const Bytes coded =
        make_codec(info.codec)->encode(serialize_format(format));
    info.index_bytes = coded.size();
    return encode_sections(info, values,
                           [&](BufferWriter& out) { out.put_bytes(coded); });
  }
  BufferWriter sizer = BufferWriter::sizer();
  format.save(sizer);
  info.index_bytes = sizer.size();
  return encode_sections(info, values,
                         [&](BufferWriter& out) { format.save(out); });
}

FragmentView view_fragment(std::span<const std::byte> data,
                           Checksum checksum) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  const std::size_t body_size = data.size() - sizeof(std::uint32_t);

  // Verify the trailing checksum before trusting any lengths.
  if (checksum == Checksum::kVerify) {
    BufferReader crc_reader(data.subspan(body_size));
    const std::uint32_t stored_crc = crc_reader.get_u32();
    detail::require(crc32(data.subspan(0, body_size)) == stored_crc,
                    "fragment checksum mismatch (corrupt file)");
  }

  BufferReader reader(data.subspan(0, body_size));
  FragmentView view;
  view.file_bytes = data.size();
  view.info = read_header(reader);
  view.index = reader.view_bytes(view.info.index_bytes);
  view.values = reader.view_vec_bytes(sizeof(value_t));
  detail::require(view.values.size() / sizeof(value_t) ==
                      view.info.value_count,
                  "fragment value count mismatch");
  detail::require(reader.exhausted(), "fragment has trailing bytes");
  return view;
}

FragmentInfo decode_fragment_info(std::span<const std::byte> data) {
  detail::require(data.size() > sizeof(std::uint32_t),
                  "fragment file too small");
  BufferReader reader(data.subspan(0, data.size() - sizeof(std::uint32_t)));
  return read_header(reader);
}

}  // namespace artsparse
