// Fragment: the on-disk unit of Algorithm 3. A WRITE produces one fragment
// holding the organization's serialized index concatenated with the
// (possibly reorganized) value buffer, prefixed by a self-describing header
// and suffixed by a payload checksum.
//
// Layout:
//   magic u32 | version u32 | org u8 | codec u8 |
//   shape extents (u64 vec) | bbox flag u8 [+ lo vec + hi vec] |
//   point count u64 | index length u64 | value count u64 |
//   value min f64 | value max f64 |
//   index bytes (codec-encoded) | values (f64) | crc32 u32
//
// The value min/max pair is the fragment's statistics block: reads with a
// value predicate skip whole fragments whose [min, max] cannot match
// (TileDB-style pushdown). Both are 0 for empty fragments.
#pragma once

#include <cstddef>
#include <span>

#include "core/box.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"
#include "storage/compress/codec.hpp"

namespace artsparse {

class SparseFormat;  // formats/format.hpp

inline constexpr std::uint32_t kFragmentMagic = 0x41535046;  // "ASPF"
inline constexpr std::uint32_t kFragmentVersion = 1;

/// Header-only view, enough for fragment discovery (bounding-box overlap
/// tests) without decoding payloads.
struct FragmentInfo {
  OrgKind org = OrgKind::kCoo;
  CodecKind codec = CodecKind::kIdentity;
  Shape shape;
  Box bbox;
  std::uint64_t point_count = 0;
  std::uint64_t index_bytes = 0;   ///< as stored (after codec)
  std::uint64_t value_count = 0;
  value_t value_min = 0;
  value_t value_max = 0;
};

/// A checked fragment whose sections view the bytes it was parsed from.
/// open_fragment() (storage/fragment_cache.hpp) turns it into the loaded
/// index that reads, `artsparse check` and the fuzzer all use.
struct FragmentView {
  FragmentInfo info;
  std::span<const std::byte> index;   ///< as stored (codec-encoded)
  std::span<const std::byte> values;  ///< info.value_count f64s, unaligned
  std::size_t file_bytes = 0;         ///< the whole file, checksum included
};

/// Serializes a fragment from its parts into one buffer of exactly the
/// file's length, applying info.codec to the index section: the identity
/// codec saves `format` straight into it. Reads org, codec, shape, bbox and
/// point_count from `info`, and fills in its index_bytes, value_count and
/// value statistics.
Bytes encode_fragment(FragmentInfo& info, const SparseFormat& format,
                      std::span<const value_t> values);

/// Whether view_fragment() computes the trailing checksum itself.
enum class Checksum {
  kVerify,    ///< CRC the body and throw FormatError on a mismatch
  kVerified,  ///< the caller already has: skip the second pass
};

/// Verifies the checksum and parses the header and section lengths,
/// copying nothing.
FragmentView view_fragment(std::span<const std::byte> data,
                           Checksum checksum = Checksum::kVerify);

/// Parses only the header.
FragmentInfo decode_fragment_info(std::span<const std::byte> data);

}  // namespace artsparse
