// Seeded corruption corpus shared by test_corruption (library-level
// expectations) and test_cli_check (the fsck CLI must flag every class).
// Each generator returns complete fragment bytes, built by the write path's
// encoder. Classes that corrupt the *index* patch it at the section offset
// view_fragment() reports and reseal the CRC, so the corruption reaches the
// format loader / deep validators instead of being caught by the checksum.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "formats/registry.hpp"
#include "storage/fragment.hpp"
#include "storage/serializer.hpp"
#include "test_support.hpp"

namespace artsparse::testing {

/// What the write path hands encode_fragment(): the header fields, the
/// built index and the slot-ordered values. Tests edit a field before
/// encode() to forge a fragment whose checksum is valid.
struct FragmentParts {
  FragmentInfo info;
  std::unique_ptr<SparseFormat> format;
  std::vector<value_t> values;

  Bytes encode() { return encode_fragment(info, *format, values); }
};

/// The Fig. 1 points built as `org`, ready to encode with `codec`.
inline FragmentParts fig1_parts(OrgKind org,
                                CodecKind codec = CodecKind::kIdentity) {
  FragmentParts parts;
  const CoordBuffer coords = fig1_coords();
  parts.format = make_format(org);
  parts.format->build(coords, fig1_shape());
  parts.info.org = org;
  parts.info.codec = codec;
  parts.info.shape = fig1_shape();
  parts.info.bbox = Box::bounding(coords);
  parts.info.point_count = coords.size();
  parts.values = fig1_values();
  return parts;
}

inline Bytes valid_fragment_bytes(OrgKind org,
                                  CodecKind codec = CodecKind::kIdentity) {
  return fig1_parts(org, codec).encode();
}

/// Overwrites the u64 at byte `offset` of `data`.
inline void poke_u64(Bytes& data, std::size_t offset, std::uint64_t value) {
  ASSERT_LE(offset + sizeof(value), data.size());
  std::memcpy(data.data() + offset, &value, sizeof(value));
}

/// Rewrites the trailing CRC-32 of a fragment to match its patched body.
inline void reseal(Bytes& data) {
  const std::size_t body = data.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = crc32(std::span(data).first(body));
  std::memcpy(data.data() + body, &crc, sizeof(crc));
}

/// Patches the u64 of an identity-codec fragment's index section that
/// `seek` positions a reader over that section on, then reseals the CRC,
/// so the corruption reaches the format loader instead of the checksum.
inline Bytes patch_index_u64(Bytes data, std::uint64_t value,
                             void (*seek)(BufferReader&)) {
  const FragmentView view = view_fragment(data);
  BufferReader reader(view.index);
  seek(reader);
  const auto index_offset =
      static_cast<std::size_t>(view.index.data() - data.data());
  poke_u64(data, index_offset + reader.offset(), value);
  reseal(data);
  return data;
}

/// Class 1: file cut off mid-payload.
inline Bytes corrupt_truncated() {
  const Bytes valid = valid_fragment_bytes(OrgKind::kGcsr);
  return Bytes(valid.begin(),
               valid.begin() + static_cast<std::ptrdiff_t>(valid.size() / 2));
}

/// Class 2: a flipped payload byte the trailing CRC no longer matches.
inline Bytes corrupt_checksum() {
  Bytes bytes = valid_fragment_bytes(OrgKind::kCsf);
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  return bytes;
}

/// Positions `reader` on the offset-vector length prefix of a GCSR++ or
/// GCSC++ index. Both save the same layout: shape vec | bbox flag + lo +
/// hi | rows | cols | ptr vec (row_ptr / col_ptr) | ind vec (col_ind /
/// row_ind).
inline void skip_to_offsets(BufferReader& reader) {
  reader.get_u64_vec();  // shape extents
  if (reader.get_u8() != 0) {
    reader.get_u64_vec();  // box lo
    reader.get_u64_vec();  // box hi
  }
  reader.get_u64();  // rows
  reader.get_u64();  // cols
}

/// Positions `reader` on the second entry of the offset vector.
inline void skip_to_second_offset(BufferReader& reader) {
  skip_to_offsets(reader);
  reader.get_u64();  // offsets length prefix
  reader.get_u64();  // first offset
}

/// Class 3: GCSR++ row_ptr (or GCSC++ col_ptr) made non-monotone by
/// spiking the second offset above the final one. The CRC is resealed so
/// only the always-on load() checks can catch it.
inline Bytes corrupt_nonmonotone_offsets(OrgKind org) {
  return patch_index_u64(valid_fragment_bytes(org), 1000,
                         skip_to_second_offset);
}

inline Bytes corrupt_nonmonotone_offsets() {
  return corrupt_nonmonotone_offsets(OrgKind::kGcsr);
}

/// Positions `reader` on the first minor index (col_ind / row_ind).
inline void skip_to_minor_index(BufferReader& reader) {
  skip_to_offsets(reader);
  reader.get_u64_vec();  // offsets
  reader.get_u64();      // minor index length prefix
}

/// A GCSR++ col_ind (or GCSC++ row_ind) entry past the minor extent.
/// load() does not range-check minor indices, so the fragment loads and
/// only check_invariants() can flag it.
inline Bytes corrupt_minor_index(OrgKind org) {
  return patch_index_u64(valid_fragment_bytes(org), 1000, skip_to_minor_index);
}

/// Positions `reader` on the first coordinate of a COO or SortedCOO index
/// (CooFormat::save: shape vec | rank | flat coord vec).
inline void skip_to_first_coord(BufferReader& reader) {
  reader.get_u64_vec();  // shape extents
  reader.get_u64();      // rank
  reader.get_u64();      // flat length prefix
}

/// Class 4: a COO coordinate outside the tensor shape. Survives load()
/// (cheap checks only) and must be caught by the deep validators.
inline Bytes corrupt_out_of_shape_coord() {
  return patch_index_u64(valid_fragment_bytes(OrgKind::kCoo), 99,
                         skip_to_first_coord);
}

/// A SortedCOO index whose points are out of order: the first point's
/// leading coordinate is spiked past the second's, within the 3x3x3 shape.
inline Bytes corrupt_unsorted_sorted_coo() {
  return patch_index_u64(valid_fragment_bytes(OrgKind::kSortedCoo), 2,
                         skip_to_first_coord);
}

/// Class 5: broken value/map pairing — the header promises one value per
/// point but the value buffer is short.
inline Bytes corrupt_bad_map() {
  FragmentParts parts = fig1_parts(OrgKind::kLinear);
  parts.values.pop_back();
  return parts.encode();
}

/// A CSF header that records one point fewer than its index holds, with
/// one value fewer so the header-level count check stays green.
inline Bytes corrupt_understated_point_count() {
  FragmentParts parts = fig1_parts(OrgKind::kCsf);
  parts.info.point_count -= 1;
  parts.values.pop_back();
  return parts.encode();
}

/// A BCSR header whose bounding box no longer covers the points.
inline Bytes corrupt_loose_bbox() {
  FragmentParts parts = fig1_parts(OrgKind::kBcsr);
  parts.info.bbox = Box({0, 0, 0}, {0, 0, 0});
  return parts.encode();
}

}  // namespace artsparse::testing
