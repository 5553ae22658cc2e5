// CSF — Compressed Sparse Fiber tree (Algorithm 2, after SPLATT).
//
// A d-level tree: level i holds the distinct dimension-i coordinates of each
// fiber, so duplicated coordinate prefixes are stored once. Dimensions are
// reordered ascending by local-boundary extent before building ("sort s_l in
// ascending order") to maximize prefix sharing at the root and shrink the
// upper levels. Points are then sorted lexicographically in the permuted
// dimension order.
//
// Structures follow the paper: nfibs[level] (node count per level),
// fids[level][...] (coordinate values per level), fptr[level][...] (child
// ranges from level to level+1, nfibs[level] + 1 entries).
//
// Build O(n log n + n*d); read descends root-to-leaf per query (binary
// search inside each fiber range); space O(n + d) ... O(n * d) depending on
// prefix duplication.
#pragma once

#include "formats/format.hpp"

namespace artsparse {

class CsfFormat final : public SparseFormat {
 public:
  CsfFormat() = default;

  OrgKind kind() const override { return OrgKind::kCsf; }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override {
    return fids_.empty() ? 0 : fids_.back().size();
  }
  const Shape& tensor_shape() const override { return shape_; }

  /// Tree accessors (tests, fig1 walkthrough).
  std::span<const index_t> nfibs() const { return nfibs_; }
  const std::vector<std::vector<index_t>>& fids() const { return fids_; }
  const std::vector<std::vector<index_t>>& fptr() const { return fptr_; }
  std::span<const index_t> dim_order() const { return dim_order_; }

  /// Total index words stored (sum of nfibs + fptr lengths); the quantity
  /// whose spread between O(n+d) and O(n*d) drives CSF's Fig.-4 variance.
  std::size_t index_words() const;

 protected:
  void declare(IndexLayout& layout) override;

 private:
  Shape shape_;
  /// Permutation of dimensions: dim_order_[level] = original dimension
  /// stored at that tree level (ascending local extent).
  std::vector<index_t> dim_order_;
  std::vector<index_t> nfibs_;               ///< d entries
  std::vector<std::vector<index_t>> fids_;   ///< d levels
  std::vector<std::vector<index_t>> fptr_;   ///< d-1 levels
};

}  // namespace artsparse
