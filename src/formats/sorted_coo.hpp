// Sorted COO — the variant the paper discusses but does not benchmark
// (Section II-A): sorting the coordinate list costs O(n log n) at build time
// but drops the per-query cost from a full scan to a binary search,
// O(log n). Space stays O(n * d). Included as a clearly-marked extension so
// the trade-off can be measured (bench_ablation_sorted_coo).
#pragma once

#include "formats/format.hpp"

namespace artsparse {

class SortedCooFormat final : public SparseFormat {
 public:
  SortedCooFormat() = default;

  OrgKind kind() const override { return OrgKind::kSortedCoo; }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override { return coords_.size(); }
  const Shape& tensor_shape() const override { return shape_; }

  /// Stored coordinates in ascending row-major (lexicographic) order.
  const CoordBuffer& coords() const { return coords_; }

 protected:
  void declare(IndexLayout& layout) override;

 private:
  Shape shape_;
  CoordBuffer coords_;  ///< sorted lexicographically
};

}  // namespace artsparse
