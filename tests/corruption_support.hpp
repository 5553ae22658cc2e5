// Seeded corruption corpus shared by test_corruption (library-level
// expectations) and test_cli_check (the fsck CLI must flag every class).
// Each generator returns complete fragment bytes. Classes that corrupt the
// *index* re-encode the fragment afterwards, so the CRC is valid and the
// corruption reaches the format loader / deep validators instead of being
// caught by the checksum.
#pragma once

#include <gtest/gtest.h>

#include <cstring>

#include "formats/registry.hpp"
#include "storage/fragment.hpp"
#include "storage/serializer.hpp"
#include "test_support.hpp"

namespace artsparse::testing {

inline Bytes valid_fragment_bytes(OrgKind org,
                                  CodecKind codec = CodecKind::kIdentity) {
  auto format = make_format(org);
  const CoordBuffer coords = fig1_coords();
  format->build(coords, fig1_shape());
  Fragment fragment;
  fragment.org = org;
  fragment.codec = codec;
  fragment.shape = fig1_shape();
  fragment.bbox = Box::bounding(coords);
  fragment.point_count = coords.size();
  fragment.index = serialize_format(*format);
  fragment.values = fig1_values();
  return encode_fragment(fragment);
}

/// Overwrites the u64 at byte `offset` of `data`.
inline void poke_u64(Bytes& data, std::size_t offset, std::uint64_t value) {
  ASSERT_LE(offset + sizeof(value), data.size());
  std::memcpy(data.data() + offset, &value, sizeof(value));
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

/// Class 3: GCSR++ row_ptr (or GCSC++ col_ptr) made non-monotone. The
/// fragment is re-encoded so only the always-on load() checks can catch it.
inline Bytes corrupt_nonmonotone_offsets(OrgKind org) {
  Fragment fragment = decode_fragment(valid_fragment_bytes(org));
  BufferReader reader(fragment.index);
  skip_to_offsets(reader);
  reader.get_u64();  // offsets length prefix
  // Spike the second offset above the final one.
  poke_u64(fragment.index, reader.offset() + sizeof(std::uint64_t), 1000);
  return encode_fragment(fragment);
}

inline Bytes corrupt_nonmonotone_offsets() {
  return corrupt_nonmonotone_offsets(OrgKind::kGcsr);
}

/// A GCSR++ col_ind (or GCSC++ row_ind) entry past the minor extent.
/// load() does not range-check minor indices, so the fragment loads and
/// only check_invariants() can flag it.
inline Bytes corrupt_minor_index(OrgKind org) {
  Fragment fragment = decode_fragment(valid_fragment_bytes(org));
  BufferReader reader(fragment.index);
  skip_to_offsets(reader);
  reader.get_u64_vec();  // offsets
  reader.get_u64();      // minor index length prefix
  poke_u64(fragment.index, reader.offset(), 1000);  // first minor index
  return encode_fragment(fragment);
}

/// Class 4: a COO coordinate outside the tensor shape. Survives load()
/// (cheap checks only) and must be caught by the deep validators.
inline Bytes corrupt_out_of_shape_coord() {
  Fragment fragment = decode_fragment(valid_fragment_bytes(OrgKind::kCoo));
  // Index layout (CooFormat::save): shape vec | rank | flat coord vec.
  BufferReader reader(fragment.index);
  reader.get_u64_vec();  // shape extents
  reader.get_u64();      // rank
  reader.get_u64();      // flat length prefix
  poke_u64(fragment.index, reader.offset(), 99);  // first coordinate
  return encode_fragment(fragment);
}

/// Class 5: broken value/map pairing — the header promises one value per
/// point but the value buffer is short.
inline Bytes corrupt_bad_map() {
  Fragment fragment = decode_fragment(valid_fragment_bytes(OrgKind::kLinear));
  fragment.values.pop_back();
  return encode_fragment(fragment);
}

}  // namespace artsparse::testing
