#include "storage/serializer.hpp"

#include <array>
#include <cstring>

namespace artsparse {

namespace {

/// Slice-by-8 tables for the reflected polynomial 0xedb88320: table[0] is
/// the classic bytewise table, and table[k][b] is the CRC of byte b
/// followed by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < tables.size(); ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

/// The 4 bytes at `p` as a little-endian word, whatever the host order.
std::uint32_t load_le32(const std::byte* p) {
  std::array<std::uint8_t, 4> b;
  std::memcpy(b.data(), p, b.size());
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t crc = 0xffffffffu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  // Eight bytes per step: fold the running CRC into the first four, then
  // look each byte up in the table that shifts it past the bytes after it.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace artsparse
