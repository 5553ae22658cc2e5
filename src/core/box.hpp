// Inclusive axis-aligned bounding boxes ("local boundary" in the paper's
// algorithms). Used to derive per-fragment shapes, to decide which fragments
// overlap a read query, and to describe the read regions of Algorithm 3.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"

namespace artsparse {

class CoordBuffer;  // coords.hpp

/// [lo, hi] inclusive on every axis. An empty box has rank 0.
class Box {
 public:
  Box() = default;
  Box(std::vector<index_t> lo, std::vector<index_t> hi);

  /// Box covering a whole dense shape: [0, extent-1] per dimension.
  static Box whole(const Shape& shape);

  /// Box from a region origin + extent (the paper's read regions are given
  /// as start (m/2, ...) and size (m/10, ...)).
  static Box from_origin_size(std::span<const index_t> origin,
                              std::span<const index_t> size);

  /// Tight bounding box of a coordinate buffer ("extract local boundary from
  /// b_coor", Algorithms 1 and 2). Throws FormatError on an empty buffer.
  static Box bounding(const CoordBuffer& coords);

  std::size_t rank() const { return lo_.size(); }
  bool empty() const { return lo_.empty(); }

  index_t lo(std::size_t dim) const {
    detail::require(dim < lo_.size(), "box dimension out of range");
    return lo_[dim];
  }
  index_t hi(std::size_t dim) const {
    detail::require(dim < hi_.size(), "box dimension out of range");
    return hi_[dim];
  }
  std::span<const index_t> lo() const { return lo_; }
  std::span<const index_t> hi() const { return hi_; }

  /// Dense shape of the box: extent hi-lo+1 per dimension.
  Shape shape() const;

  /// Number of cells inside the box, with shape()'s checks (positive
  /// extents, then OverflowError) but no allocation.
  index_t cell_count() const {
    // Shape's checks in Shape's order, without building one: every extent
    // positive first (hi-lo+1 wraps to 0 only for [0, UINT64_MAX]), then
    // the product fits index_t.
    index_t cells = empty() ? 0 : 1;
    bool wrapped = false;
    bool overflow = false;
    for (std::size_t i = 0; i < lo_.size(); ++i) {
      const index_t extent = hi_[i] - lo_[i] + 1;
      wrapped |= extent == 0;
      overflow |= __builtin_mul_overflow(cells, extent, &cells);
    }
    detail::require(!wrapped, "shape extents must be positive");
    if (overflow) [[unlikely]] {
      throw OverflowError("shape element count overflows 64-bit index space");
    }
    return cells;
  }

  bool contains(std::span<const index_t> point) const {
    if (point.size() != lo_.size()) return false;
    for (std::size_t i = 0; i < lo_.size(); ++i) {
      if (point[i] < lo_[i] || point[i] > hi_[i]) return false;
    }
    return true;
  }
  bool contains(const Box& other) const;
  bool overlaps(const Box& other) const;

  /// Intersection; returns an empty box when disjoint.
  Box intersect(const Box& other) const;

  std::string to_string() const;

  friend bool operator==(const Box& a, const Box& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  std::vector<index_t> lo_;
  std::vector<index_t> hi_;
};

/// Enumerates every cell of `box` in row-major order, appending each
/// coordinate to `out`. Used to materialize the read queries of Algorithm 3
/// (the benchmark reads every cell of a contiguous region).
void enumerate_cells(const Box& box, CoordBuffer& out);

}  // namespace artsparse
