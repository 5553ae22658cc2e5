// Bounds-checked binary buffer writer/reader. Every fragment payload — the
// organization-specific index buffers of Algorithms 1-2 and the value buffer
// they are concatenated with — is encoded through this layer, so malformed
// fragments fail with FormatError instead of undefined behaviour.
//
// Encoding is little-endian, fixed-width; integers are std::uint64_t unless
// stated otherwise. Vectors are encoded as a u64 length followed by the
// elements.
#pragma once

#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace artsparse {

/// Appends primitive values and arrays to a growable byte buffer.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Reserves `capacity` bytes: a writer sized to its final length copies
  /// each byte once and never reallocates.
  explicit BufferWriter(std::size_t capacity) { buffer_.reserve(capacity); }

  /// A writer that stores nothing: size() after a save() into it is that
  /// serialization's length, at the cost of its puts, not of its bytes.
  static BufferWriter sizer() {
    BufferWriter writer;
    writer.sizing_ = true;
    return writer;
  }

  void put_u8(std::uint8_t v) { put_raw(&v, 1); }
  void put_u32(std::uint32_t v) { put_pod(v); }
  void put_u64(std::uint64_t v) { put_pod(v); }
  void put_f64(double v) { put_pod(v); }

  /// Length-prefixed u64 vector.
  void put_u64_vec(std::span<const std::uint64_t> v) {
    put_u64(v.size());
    put_raw(v.data(), v.size() * sizeof(std::uint64_t));
  }

  /// Length-prefixed f64 vector.
  void put_f64_vec(std::span<const double> v) {
    put_u64(v.size());
    put_raw(v.data(), v.size() * sizeof(double));
  }

  /// Raw bytes without a length prefix (callers encode their own framing).
  void put_bytes(std::span<const std::byte> b) {
    put_raw(b.data(), b.size());
  }

  std::size_t size() const { return sizing_ ? sized_ : buffer_.size(); }
  const Bytes& bytes() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  template <typename T>
  void put_pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_raw(&v, sizeof(T));
  }

  void put_raw(const void* data, std::size_t n) {
    if (sizing_) {
      sized_ += n;
      return;
    }
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + n);
  }

  Bytes buffer_;
  bool sizing_ = false;
  std::size_t sized_ = 0;  ///< bytes a sizer() has counted
};

/// Sequential reader over a byte span; every access is bounds-checked.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t get_u8() {
    std::uint8_t v;
    get_raw(&v, 1);
    return v;
  }
  /// A u8 that must be 0 or 1, so that a re-save writes the same byte.
  bool get_flag() {
    const std::uint8_t v = get_u8();
    detail::require(v <= 1, "serialized flag is neither 0 nor 1");
    return v == 1;
  }
  std::uint32_t get_u32() { return get_pod<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_pod<std::uint64_t>(); }
  double get_f64() { return get_pod<double>(); }

  std::vector<std::uint64_t> get_u64_vec() {
    const std::uint64_t n = get_checked_count(sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(n);
    get_raw(v.data(), n * sizeof(std::uint64_t));
    return v;
  }

  /// The next `n` bytes, viewed rather than copied. Takes a u64 so
  /// untrusted 64-bit lengths are bounds-checked *before* any narrowing to
  /// size_t (a 32-bit size_t would otherwise truncate a hostile length into
  /// a small, "valid" one).
  std::span<const std::byte> view_bytes(std::uint64_t n) {
    detail::require(n <= remaining(), "serialized buffer truncated");
    const auto count = static_cast<std::size_t>(n);
    const std::span<const std::byte> b = data_.subspan(offset_, count);
    offset_ += count;
    return b;
  }

  /// A length-prefixed vector's element bytes, viewed rather than copied
  /// (and unaligned: callers memcpy them out).
  std::span<const std::byte> view_vec_bytes(std::size_t element_size) {
    const std::uint64_t n = get_checked_count(element_size);
    return view_bytes(n * element_size);
  }

  std::size_t remaining() const { return data_.size() - offset_; }
  std::size_t offset() const { return offset_; }
  bool exhausted() const { return offset_ == data_.size(); }

 private:
  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    get_raw(&v, sizeof(T));
    return v;
  }

  void get_raw(void* out, std::size_t n) {
    detail::require(remaining() >= n, "serialized buffer truncated");
    if (n > 0) {  // data() may be null on an empty span; memcpy forbids null
      std::memcpy(out, data_.data() + offset_, n);
    }
    offset_ += n;
  }

  /// Reads a length prefix and validates it against the remaining bytes so
  /// hostile lengths cannot trigger giant allocations.
  std::uint64_t get_checked_count(std::size_t element_size) {
    const std::uint64_t n = get_u64();
    detail::require(n <= remaining() / element_size,
                    "serialized vector length exceeds buffer size");
    return n;
  }

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// CRC-32 (ISO-HDLC polynomial) over a byte span; fragments carry a payload
/// checksum so storage corruption is detected at read time. Runs the
/// carry-less-multiply kernel where the CPU has one, slice-by-8 elsewhere.
std::uint32_t crc32(std::span<const std::byte> data);

namespace detail {
/// The two CRC-32 kernels behind crc32(), each callable on its own so
/// tests run both on every host. Both return crc32(data).
std::uint32_t crc32_slice8(std::span<const std::byte> data);
/// Folds 64 bytes per step with PCLMULQDQ. Only callable when
/// crc32_clmul_supported().
std::uint32_t crc32_clmul(std::span<const std::byte> data);
bool crc32_clmul_supported();
}  // namespace detail

}  // namespace artsparse
