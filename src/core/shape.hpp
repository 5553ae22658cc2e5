// Tensor shape: dimension extents plus the derived quantities every
// organization needs (row-major strides, element count, and the d-D -> 2-D
// flattening rule used by GCSR++/GCSC++).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace artsparse {

/// The 2-D shape GCSR++/GCSC++ map a d-dimensional tensor onto: the smallest
/// extent becomes one side, the product of the remaining extents the other
/// (Algorithm 1 line 6). `min_dim` records which original dimension was
/// chosen so reads can apply the identical transform.
struct Flat2D {
  index_t rows = 0;
  index_t cols = 0;
  std::size_t min_dim = 0;  ///< index of the smallest original extent
};

/// Immutable dimension extents of a (dense bounding) tensor.
///
/// All stride and element-count arithmetic is overflow-checked: the paper
/// calls out linear-address overflow as the practical risk of address-based
/// organizations, and we refuse to construct shapes whose element count
/// cannot be represented in index_t.
class Shape {
 public:
  Shape() = default;
  explicit Shape(std::vector<index_t> extents);
  Shape(std::initializer_list<index_t> extents);

  /// Number of dimensions (d in the paper).
  std::size_t rank() const { return extents_.size(); }
  bool empty() const { return extents_.empty(); }

  index_t extent(std::size_t dim) const {
    detail::require(dim < extents_.size(), "shape dimension out of range");
    return extents_[dim];
  }
  std::span<const index_t> extents() const { return extents_; }

  /// Row-major strides: stride[d-1] == 1, stride[i] = prod(extents[i+1..]).
  std::span<const index_t> strides() const { return strides_; }

  /// Total number of cells (dense), i.e. the linear address space size.
  index_t element_count() const { return element_count_; }

  /// Smallest extent, min{m_1, ..., m_d} in the complexity table.
  index_t min_extent() const;
  std::size_t min_extent_dim() const;

  /// The GCSR++/GCSC++ 2-D flattening: rows = min extent, cols = product of
  /// the others. For rank-1 shapes this degenerates to (extent, 1).
  Flat2D flatten_2d() const;

  /// Builds the cubic shapes used by the paper's evaluation (Table II),
  /// e.g. uniform(3, 512) == {512, 512, 512}.
  static Shape uniform(std::size_t rank, index_t extent);

  std::string to_string() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.extents_ == b.extents_;
  }

 private:
  void init();

  std::vector<index_t> extents_;
  std::vector<index_t> strides_;
  index_t element_count_ = 0;
};

}  // namespace artsparse
