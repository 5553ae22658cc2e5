#include "storage/serializer.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Advances the CRC register `crc` (no pre- or post-inversion) over `n`
/// bytes at `p`, eight bytes per step.
std::uint32_t slice8_update(std::uint32_t crc, const std::byte* p,
                            std::size_t n) {
  static const CrcTables t = make_crc_tables();
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
  return crc;
}

#if defined(__x86_64__)

/// One fold step: carries the 128 bits of `x` forward by the stride whose
/// constants `k` holds (low half: x's low qword, high half: its high), onto
/// the `data` block there.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

__attribute__((target("pclmul"))) __m128i load128(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// slice8_update() by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
/// 2009; the Linux kernel's crc32-pclmul uses the same constants). Four
/// 128-bit accumulators fold 64 bytes per step, then fold into one; the
/// table finishes over those 16 bytes and the tail, so no Barrett step is
/// needed. The register enters as a XOR into the first four bytes.
__attribute__((target("pclmul"))) std::uint32_t clmul_update(
    std::uint32_t crc, const std::byte* p, std::size_t n) {
  if (n < 64) return slice8_update(crc, p, n);
  // Reflected x^(512+32) and x^(512-32) mod P (the 64-byte stride), then
  // x^(128+32) and x^(128-32) mod P (the 16-byte stride).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load128(p));
    x1 = fold(x1, k1k2, load128(p + 16));
    x2 = fold(x2, k1k2, load128(p + 32));
    x3 = fold(x3, k1k2, load128(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  std::array<std::byte, 16> folded;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded.data()), x0);
  return slice8_update(slice8_update(0, folded.data(), folded.size()), p, n);
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::uint32_t crc32_slice8(std::span<const std::byte> data) {
  return slice8_update(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
}

bool crc32_clmul_supported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

std::uint32_t crc32_clmul(std::span<const std::byte> data) {
#if defined(__x86_64__)
  return clmul_update(0xffffffffu, data.data(), data.size()) ^ 0xffffffffu;
#else
  return crc32_slice8(data);
#endif
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> data) {
  static const bool clmul = detail::crc32_clmul_supported();
  return clmul ? detail::crc32_clmul(data) : detail::crc32_slice8(data);
}

}  // namespace artsparse
