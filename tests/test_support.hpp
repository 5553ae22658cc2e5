// Shared fixtures for format tests: the paper's Fig. 1 example tensor and
// small helpers.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <span>
#include <vector>

#include "core/coords.hpp"
#include "core/shape.hpp"
#include "formats/format.hpp"

namespace artsparse::testing {

/// The 3x3x3 example of Fig. 1: five points with values v1..v5 (encoded as
/// 1.0..5.0).
inline CoordBuffer fig1_coords() {
  CoordBuffer coords(3);
  coords.append({0, 0, 1});
  coords.append({0, 1, 1});
  coords.append({0, 1, 2});
  coords.append({2, 2, 1});
  coords.append({2, 2, 2});
  return coords;
}

inline Shape fig1_shape() { return Shape{3, 3, 3}; }

inline std::vector<value_t> fig1_values() {
  return {1.0, 2.0, 3.0, 4.0, 5.0};
}

/// Serialize-then-load round trip into `fresh`.
template <typename FormatT>
void reload(const FormatT& format, FormatT& fresh) {
  const Bytes bytes = serialize_format(format);
  BufferReader reader(bytes);
  fresh.load(reader);
}

/// Unique temporary directory for store tests; caller removes it.
inline std::filesystem::path fresh_temp_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("artsparse_test_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++));
  std::filesystem::create_directories(dir);
  return dir;
}

/// gtest prints a parameter that has no printer as its raw bytes, and
/// gtest_discover_tests copies that text into the ctest name. A struct's
/// padding bytes are uninitialized, so the name would differ between two
/// listings of one binary. This prints the same `N-byte object <..>` dump
/// with every padding byte as zero; pass each member of `value`.
template <typename T, typename... M>
void print_zero_padded(const T& value, std::ostream* os, M T::*... members) {
  std::array<unsigned char, sizeof(T)> bytes{};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  (std::memcpy(bytes.data() +
                   (reinterpret_cast<const unsigned char*>(&(value.*members)) -
                    base),
               &(value.*members), sizeof(M)),
   ...);
  ::testing::internal::PrintBytesInObjectTo(bytes.data(), bytes.size(), os);
}

}  // namespace artsparse::testing
