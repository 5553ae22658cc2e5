// GCSR++ (Algorithm 1) and GCSC++ (Section II-D): one compressed 2-D
// format, parameterised on its major axis.
//
// The local bounding box of the points ("s_l") is row-major linearized and
// each address re-interpreted as (row, column) of a 2-D matrix. GCSR++ makes
// the box's smallest extent the row count, sorts by row and packages CSR
// (row_ptr + col_ind); GCSC++ makes it the column count, sorts by column
// and packages CSC (col_ptr + row_ind). In Chou et al.'s level abstraction
// both are a dense level over a compressed level, differing only in mode
// order. Only these depend on the axis: the side given the smallest extent,
// the sort key, the address scan_box() rebuilds, scan_box()'s line range
// (GCSR++ prunes rows to the box's address window; GCSC++'s columns
// interleave through it, so it walks them all) and read()'s order (GCSR++
// resolves queries in parallel, GCSC++ column by column: difference (4)).
//
// Build O(n log n + 2n); read O(n_read * n / min(m) + n) — each query scans
// its line, the batch pays one coordinate-transform pass; space
// O(n + min(m)). GCSC++ builds slower on row-major input (Table III): its
// column sort and value reorganization fight the input layout.
#pragma once

#include "core/linearize.hpp"
#include "formats/format.hpp"

namespace artsparse {

/// Base of the formats that map points through their local bounding box
/// onto a rows() x cols() matrix: GCSR++, GCSC++ and BCSR. A point inside
/// the box is row-major linearized there and the address split into
/// (address / cols, address % cols).
class Mapped2DFormat : public SparseFormat {
 public:
  const Shape& tensor_shape() const override { return shape_; }
  const Box* fitted_box() const override { return &local_box_; }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  const Box& local_box() const { return local_box_; }

 protected:
  /// Starts a build: checks the rank, takes `shape` and fits the local box
  /// of `coords`. Its smallest extent becomes the row count (the column
  /// count when `smallest_is_cols`), the product of the rest the other.
  /// False, with an empty 0 x 0 mapping, when `coords` is empty.
  bool fit_2d(const CoordBuffer& coords, const Shape& shape,
              bool smallest_is_cols);

  /// Maps an original coordinate to (row, col) in the 2-D shape; false when
  /// the point lies outside the local bounding box (guaranteed miss).
  bool to_2d(std::span<const index_t> point, index_t& row,
             index_t& col) const;

  /// to_2d() for every point of the `coords` that fit_2d() fitted the
  /// local box to, calling fn(i, row, col) for point i, with the box's
  /// checks made once (for_each_local_address).
  template <typename Fn>
  void map_to_2d(const CoordBuffer& coords, Fn&& fn) const {
    for_each_local_address(coords, local_box_,
                           [&](std::size_t i, index_t address) {
                             fn(i, address / cols_, address % cols_);
                           });
  }

  /// Declares the mapping's index prefix, shape | box | rows | cols, and
  /// its structural rules: a box of the shape's rank, and a 2-D shape that
  /// exactly tiles the box's address space (to_2d() divides addresses by
  /// cols_), or 0 x 0 without a box.
  void declare_mapping(IndexLayout& layout, const char* box_rank_rule,
                       const char* tiling_rule);

  Shape shape_;
  Box local_box_;
  index_t rows_ = 0;
  index_t cols_ = 0;
};

/// The axis a compressed 2-D format's offsets index.
enum class MajorAxis { kRows, kCols };

template <MajorAxis Axis>
class Compressed2DFormat : public Mapped2DFormat {
 public:
  OrgKind kind() const override {
    return Axis == MajorAxis::kRows ? OrgKind::kGcsr : OrgKind::kGcsc;
  }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  /// Algorithm 1's GCSR++_READ: transforms all queries to 2-D in one pass,
  /// then searches line by line.
  std::vector<std::size_t> read(const CoordBuffer& queries) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override { return ind_.size(); }

 protected:
  void declare(IndexLayout& layout) override;

  /// Number of major lines (rows of GCSR++, columns of GCSC++).
  index_t lines() const { return Axis == MajorAxis::kRows ? rows_ : cols_; }

  /// to_2d() with the result as (major, minor).
  bool to_line(std::span<const index_t> point, index_t& major,
               index_t& minor) const {
    return Axis == MajorAxis::kRows ? to_2d(point, major, minor)
                                    : to_2d(point, minor, major);
  }

  /// Scans line `major` for `minor`; returns the slot or kNotFound.
  std::size_t search_line(index_t major, index_t minor) const;

  std::vector<index_t> ptr_;  ///< lines() + 1 offsets
  std::vector<index_t> ind_;  ///< minor index per point, grouped by line
};

extern template class Compressed2DFormat<MajorAxis::kRows>;
extern template class Compressed2DFormat<MajorAxis::kCols>;

/// GCSR++: rows are the major axis, packaged as CSR.
class GcsrFormat final : public Compressed2DFormat<MajorAxis::kRows> {
 public:
  /// CSR structure accessors (for tests and the fig1 walkthrough).
  std::span<const index_t> row_ptr() const { return ptr_; }
  std::span<const index_t> col_ind() const { return ind_; }
};

/// GCSC++: columns are the major axis, packaged as CSC.
class GcscFormat final : public Compressed2DFormat<MajorAxis::kCols> {
 public:
  std::span<const index_t> col_ptr() const { return ptr_; }
  std::span<const index_t> row_ind() const { return ind_; }
};

}  // namespace artsparse
