// CoordBuffer: the "b_coor" of the paper's algorithms — a flat, row-major
// (point-major) buffer of n points x d coordinates.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace artsparse {

/// Dense array-of-points coordinate storage. Point i occupies the d
/// consecutive entries data()[i*d .. i*d+d-1]. This matches the paper's
/// assumption that "the input of our sparse tensor is an unsorted 1D
/// coordinate vector".
class CoordBuffer {
 public:
  CoordBuffer() = default;
  explicit CoordBuffer(std::size_t rank) : rank_(rank) {}
  CoordBuffer(std::size_t rank, std::vector<index_t> flat);

  std::size_t rank() const { return rank_; }
  std::size_t size() const { return rank_ == 0 ? 0 : flat_.size() / rank_; }
  bool empty() const { return flat_.empty(); }

  /// Coordinates of point i as a span of length rank().
  std::span<const index_t> point(std::size_t i) const {
    detail::require(i < size(), "CoordBuffer point index out of range");
    return {flat_.data() + i * rank_, rank_};
  }

  /// Coordinate of point i in dimension dim.
  index_t at(std::size_t i, std::size_t dim) const;

  /// Appends one point; the span length must equal rank().
  void append(std::span<const index_t> point) {
    detail::require(point.size() == rank_,
                    "appended point rank does not match buffer rank");
    flat_.insert(flat_.end(), point.begin(), point.end());
  }
  /// Out of line: hand-written points are not a hot path, and inlined
  /// into a constant-size list GCC 12 warns a false -Wstringop-overflow.
  void append(std::initializer_list<index_t> point);

  void reserve(std::size_t points) { flat_.reserve(points * rank_); }
  void clear() { flat_.clear(); }

  std::span<const index_t> flat() const { return flat_; }
  const index_t* data() const { return flat_.data(); }

  /// Returns a copy with points rearranged so that result.point(i) ==
  /// this->point(perm[i]). perm must be a permutation of [0, size()).
  CoordBuffer permuted(std::span<const std::size_t> perm) const;

  friend bool operator==(const CoordBuffer& a, const CoordBuffer& b) {
    return a.rank_ == b.rank_ && a.flat_ == b.flat_;
  }

 private:
  std::size_t rank_ = 0;
  std::vector<index_t> flat_;
};

}  // namespace artsparse
