// Robustness fuzzing of the fragment open path: random truncations, random
// byte corruptions, and random garbage must always fail with FormatError —
// never crash, hang, or allocate absurd amounts.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "corruption_support.hpp"
#include "formats/registry.hpp"
#include "storage/fragment.hpp"
#include "storage/fragment_cache.hpp"

namespace artsparse {
namespace {

using testing::valid_fragment_bytes;

TEST(FragmentFuzz, EveryTruncationFailsCleanly) {
  const Bytes valid = valid_fragment_bytes(OrgKind::kGcsr,
                                           CodecKind::kIdentity);
  for (std::size_t keep = 0; keep < valid.size(); ++keep) {
    const Bytes truncated(valid.begin(),
                          valid.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(view_fragment(truncated), FormatError)
        << "kept " << keep << " of " << valid.size();
  }
}

TEST(FragmentFuzz, SingleByteCorruptionNeverDecodesSilently) {
  // The CRC catches every single-byte flip (CRC-32 detects all 1-bit and
  // 2-bit errors, and any burst under 32 bits).
  const Bytes valid = valid_fragment_bytes(OrgKind::kCsf,
                                           CodecKind::kVarint);
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupt = valid;
    const std::size_t at = rng.next_below(corrupt.size());
    corrupt[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
    EXPECT_THROW(view_fragment(corrupt), FormatError) << "byte " << at;
  }
}

TEST(FragmentFuzz, RandomGarbageRejected) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    Bytes garbage(8 + rng.next_below(512));
    for (auto& b : garbage) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    EXPECT_THROW(view_fragment(garbage), FormatError);
    EXPECT_THROW(decode_fragment_info(garbage), FormatError);
  }
}

TEST(FragmentFuzz, TruncatedInfoFailsCleanlyForEveryOrgAndCodec) {
  for (OrgKind org : {OrgKind::kCoo, OrgKind::kLinear, OrgKind::kBcsr}) {
    for (CodecKind codec :
         {CodecKind::kIdentity, CodecKind::kDeltaVarint, CodecKind::kRle}) {
      const Bytes valid = valid_fragment_bytes(org, codec);
      // Header-only parse on progressively shorter prefixes.
      for (std::size_t keep = 0; keep < 64 && keep < valid.size();
           keep += 3) {
        const Bytes prefix(
            valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW(decode_fragment_info(prefix), FormatError);
      }
      // The intact payload still parses.
      EXPECT_EQ(open_fragment(view_fragment(valid)).point_count, 5u);
    }
  }
}

TEST(FragmentFuzz, FormatLoadFuzzedIndexNeverCrashes) {
  // Below the fragment layer: feed each format's load() random prefixes of
  // a valid index; every failure must be a FormatError.
  Xoshiro256 rng(123);
  for (OrgKind org : all_org_kinds()) {
    auto format = make_format(org);
    const CoordBuffer coords = testing::fig1_coords();
    format->build(coords, testing::fig1_shape());
    const Bytes valid = serialize_format(*format);
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t keep = rng.next_below(valid.size());
      Bytes prefix(valid.begin(),
                   valid.begin() + static_cast<std::ptrdiff_t>(keep));
      if (trial % 2 == 1 && !prefix.empty()) {
        prefix[rng.next_below(prefix.size())] ^= std::byte{0xff};
      }
      auto fresh = make_format(org);
      BufferReader reader(prefix);
      try {
        fresh->load(reader);
        // Loading may *succeed* on a prefix that happens to be
        // self-consistent; lookups must then still be memory-safe.
        fresh->lookup(coords.point(0));
      } catch (const FormatError&) {
        // expected for malformed input
      } catch (const OverflowError&) {
        // corrupt extents may legitimately overflow shape arithmetic
      }
    }
  }
}

}  // namespace
}  // namespace artsparse
