// COO — the paper's baseline organization (Section II-A).
//
// The input is assumed to be an unsorted 1D coordinate vector, so building
// COO is O(1) beyond buffering: the coordinate buffer and the value buffer
// are serialized independently and concatenated into a single fragment.
// Reads pay for that thrift: each query scans the whole list, giving the
// O(n * n_read) read bound of Table I. Space is O(n * d).
#pragma once

#include "formats/format.hpp"

namespace artsparse {

class CooFormat final : public SparseFormat {
 public:
  CooFormat() = default;

  OrgKind kind() const override { return OrgKind::kCoo; }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override { return coords_.size(); }
  const Shape& tensor_shape() const override { return shape_; }

  /// Stored coordinates, in input order (COO never reorders).
  const CoordBuffer& coords() const { return coords_; }

 protected:
  void declare(IndexLayout& layout) override;

 private:
  Shape shape_;
  CoordBuffer coords_;
};

}  // namespace artsparse
